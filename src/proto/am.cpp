#include "proto/am.hpp"

#include <cassert>
#include <memory>

namespace now::proto {

AmLayer::AmLayer(NicMux& mux, AmParams params, std::uint64_t seed)
    : mux_(mux), params_(params), rng_(seed, /*stream=*/0x616d6c),
      obs_track_(obs::tracer().track("proto")),
      stats_obs_("am", [this](obs::Sink& s) {
        sim::SpinGuard g(stats_lock_);
        s.counter("sent", stats_.sent);
        s.counter("retransmits", stats_.retransmits);
        s.counter("handled", stats_.handled);
        s.counter("acks", stats_.acks);
        s.counter("injected_losses", stats_.injected_losses);
        s.counter("stalled_sends", stats_.stalled_sends);
        s.counter("pair_failures", stats_.pair_failures);
        s.summary("msg_latency_us", stats_.msg_latency_us);
      }) {
  assert(params_.window > 0 && params_.mtu_bytes > 0);
  // One tag per frame type, so arrival needs no type test.
  data_tag_ = mux_.register_layer([this](net::Packet&& pkt) {
    on_data(std::unique_ptr<AmMessage>(
        static_cast<AmMessage*>(pkt.frame.release())));
  });
  ack_tag_ = mux_.register_layer([this](net::Packet&& pkt) {
    os::Node& n = *mux_.node(pkt.dst);
    n.cpu().steal(params_.costs.recv_fixed / params_.ack_cost_divisor);
    on_ack(static_cast<const AmAck&>(*pkt.frame));
  });
}

os::Node& AmLayer::node_of(EndpointId id) { return *ep(id).node; }

EndpointId AmLayer::create_endpoint(os::Node& node, Mode mode) {
  const auto id = static_cast<EndpointId>(endpoints_.size());
  Endpoint e;
  e.node = &node;
  e.mode = mode;
  endpoints_.push_back(std::move(e));
  if (mode == Mode::kPolling) {
    const net::NodeId nid = node.id();
    if (nid >= observer_installed_.size()) {
      observer_installed_.resize(nid + 1, false);
    }
    if (!observer_installed_[nid]) {
      observer_installed_[nid] = true;
      node.cpu().add_dispatch_observer(
          [this, nid](os::ProcessId pid) { drain_polling(nid, pid); });
    }
  }
  return id;
}

void AmLayer::set_owner(EndpointId id, os::ProcessId pid) {
  Endpoint& e = ep(id);
  assert(e.mode == Mode::kPolling);
  if (e.owner != os::kNoProcess) {
    auto& owned = pollers_[e.node->id()][e.owner];
    std::erase(owned, id);
  }
  e.owner = pid;
  pollers_[e.node->id()][pid].push_back(id);
}

void AmLayer::register_handler(EndpointId id, HandlerId h, Handler fn) {
  std::vector<Handler>& handlers = ep(id).handlers;
  if (h >= handlers.size()) handlers.resize(h + 1);
  handlers[h] = std::move(fn);
}

sim::Duration AmLayer::unloaded_one_way(std::uint32_t bytes,
                                        sim::Duration wire_transit) const {
  return params_.costs.send_overhead(bytes) + wire_transit +
         params_.costs.recv_overhead(bytes);
}

AmLayer::PairTx* AmLayer::find_tx(EndpointId src, EndpointId dst) {
  Endpoint& e = ep(src);
  const std::uint32_t* i = e.tx_index.find(dst);
  return i == nullptr ? nullptr : e.tx_pairs[*i].get();
}

AmLayer::PairTx& AmLayer::tx_pair(EndpointId src, EndpointId dst) {
  if (PairTx* tx = find_tx(src, dst)) return *tx;
  Endpoint& e = ep(src);
  e.tx_index.find_or_insert(dst,
                            static_cast<std::uint32_t>(e.tx_pairs.size()));
  return *e.tx_pairs.emplace_back(std::make_unique<PairTx>());
}

void AmLayer::send(EndpointId src, EndpointId dst, HandlerId h,
                   std::uint32_t bytes, Body payload,
                   std::function<void()> on_injected, RpcHeader rpc) {
  enqueue_fragments(src, dst, h, bytes, std::move(payload),
                    std::move(on_injected), rpc);
}

void AmLayer::send_from_process(os::ProcessId pid, EndpointId src,
                                EndpointId dst, HandlerId h,
                                std::uint32_t bytes, Body payload,
                                std::function<void()> then) {
  // The injection callback may fire synchronously (window open) or later
  // (credits exhausted), so the flag must outlive this frame.
  auto injected = std::make_shared<bool>(false);
  enqueue_fragments(src, dst, h, bytes, std::move(payload),
                    [injected] { *injected = true; }, RpcHeader{});
  if (*injected) {
    then();
    return;
  }
  {
    sim::SpinGuard g(stats_lock_);
    ++stats_.stalled_sends;
  }
  obs::tracer().instant(ep(src).node->id(), obs_track_, "credit_stall");
  // Spin-poll until the window opens.  The process stays runnable — and
  // therefore keeps draining its own endpoint — which is both what real
  // user-level AM senders do and what prevents window-credit deadlock
  // among mutually-sending ranks.
  spin_until_injected(pid, src, injected, std::move(then));
}

void AmLayer::spin_until_injected(os::ProcessId pid, EndpointId src,
                                  std::shared_ptr<bool> injected,
                                  std::function<void()> then) {
  os::Cpu& cpu = ep(src).node->cpu();
  cpu.compute(pid, params_.send_spin_slice,
              [this, pid, src, injected = std::move(injected),
               then = std::move(then)]() mutable {
                if (*injected) {
                  then();
                  return;
                }
                spin_until_injected(pid, src, std::move(injected),
                                    std::move(then));
              });
}

void AmLayer::enqueue_fragments(EndpointId src, EndpointId dst, HandlerId h,
                                std::uint32_t bytes, Body payload,
                                std::function<void()> on_injected,
                                RpcHeader rpc) {
  PairTx& tx = tx_pair(src, dst);
  const std::uint32_t nfrags =
      bytes == 0 ? 1 : (bytes + params_.mtu_bytes - 1) / params_.mtu_bytes;
  std::uint32_t remaining = bytes;
  const sim::SimTime t0 = engine_of(*ep(src).node).now();
  for (std::uint32_t i = 0; i < nfrags; ++i) {
    Fragment& f = tx.queue.emplace_back();
    AmMessage& m = f.msg;
    m.src_ep = src;
    m.dst_ep = dst;
    m.handler = h;
    m.frag_bytes = bytes == 0 ? 0 : std::min(remaining, params_.mtu_bytes);
    remaining -= m.frag_bytes;
    m.bytes = bytes;
    m.last = (i + 1 == nfrags);
    m.injected_at = t0;
    m.rpc = rpc;
    if (m.last) {
      m.payload = std::move(payload);
      f.on_injected = std::move(on_injected);
    }
  }
  pump_window(src, dst, tx);
}

void AmLayer::pump_window(EndpointId src, EndpointId dst, PairTx& tx) {
  // Indices are re-read every round: on_injected may send again on this
  // very pair, appending to the queue and advancing next_seq.
  for (std::uint32_t in_flight = tx.next_seq - tx.base;
       in_flight < tx.queue.size() && in_flight < params_.window;
       in_flight = tx.next_seq - tx.base) {
    Fragment& f = tx.queue[in_flight];
    f.msg.epoch = tx.epoch;
    f.msg.seq = tx.next_seq++;
    transmit(src, f.msg);
    {
      sim::SpinGuard g(stats_lock_);
      ++stats_.sent;
    }
    if (f.on_injected) {
      auto cb = std::move(f.on_injected);
      f.on_injected = nullptr;
      cb();
    }
  }
  if (tx.next_seq != tx.base && tx.timer == 0) arm_timer(src, dst, tx);
}

void AmLayer::transmit(EndpointId src, const AmMessage& f) {
  os::Node& sn = *ep(src).node;
  if (!sn.alive()) return;
  const sim::Duration o_s = params_.costs.send_overhead(f.frag_bytes);
  sn.cpu().steal(o_s);
  const sim::SimTime inject_at = mux_.reserve_stack(sn.id(), o_s);

  net::Packet pkt;
  pkt.src = sn.id();
  pkt.dst = ep(f.dst_ep).node->id();
  pkt.size_bytes = f.frag_bytes + 16;  // AM header
  pkt.tag = data_tag_;
  // The window keeps its entry for retransmission; the wire gets a copy.
  pkt.frame = std::make_unique<AmMessage>(f);
  auto inject = [this, p = std::move(pkt)]() mutable {
    mux_.send(std::move(p));
  };
  static_assert(sim::InlinedCallback::fits_inline<decltype(inject)>(),
                "a packet-carrying closure must not allocate");
  engine_of(sn).schedule_at(inject_at, std::move(inject));
}

void AmLayer::arm_timer(EndpointId src, EndpointId dst, PairTx& tx) {
  // The timer lives on the sender's lane: on_timeout touches only tx state.
  tx.timer = engine_of(*ep(src).node)
                 .schedule_in(params_.retry_timeout,
                              [this, src, dst] { on_timeout(src, dst); });
}

void AmLayer::on_timeout(EndpointId src, EndpointId dst) {
  PairTx* const found = find_tx(src, dst);
  if (found == nullptr) return;
  PairTx& tx = *found;
  tx.timer = 0;
  if (tx.next_seq == tx.base) return;
  const bool sender_dead = !ep(src).node->alive();
  const bool give_up = !sender_dead && ++tx.timeouts > params_.max_retries;
  if (sender_dead || give_up) {
    if (give_up) {
      {
        sim::SpinGuard g(stats_lock_);
        ++stats_.pair_failures;
      }
      obs::tracer().instant(ep(src).node->id(), obs_track_, "epoch_bump");
    }
    // Abandon the window under a new connection generation: the next send
    // starts at seq 0 under a fresh epoch, so a peer holding stale in-order
    // state (a reboot, or simply having missed everything) resynchronizes.
    // A dead sender keeps its generation count too — restarting at epoch 0
    // would look stale to a receiver that already holds a higher one.
    tx.queue.clear();
    ++tx.epoch;
    tx.base = 0;
    tx.next_seq = 0;
    tx.timeouts = 0;
    if (give_up && on_failure_) on_failure_(src, dst);
    return;
  }
  // Go-back-N: retransmit everything outstanding.
  obs::tracer().instant(ep(src).node->id(), obs_track_, "go_back_n");
  const std::uint32_t in_flight = tx.next_seq - tx.base;
  for (std::uint32_t i = 0; i < in_flight; ++i) {
    transmit(src, tx.queue[i].msg);
    {
      sim::SpinGuard g(stats_lock_);
      ++stats_.retransmits;
    }
  }
  arm_timer(src, dst, tx);
}

void AmLayer::on_data(std::unique_ptr<AmMessage> d) {
  if (params_.loss_probability > 0.0 &&
      rng_.bernoulli(params_.loss_probability)) {
    sim::SpinGuard g(stats_lock_);
    ++stats_.injected_losses;
    return;
  }
  Endpoint& e = ep(d->dst_ep);
  PairRx& rx = e.rx.find_or_insert(d->src_ep);
  if (d->epoch != rx.epoch) {
    if (d->epoch < rx.epoch) return;  // stale generation: drop
    // The sender restarted this pair: resynchronize.
    rx.epoch = d->epoch;
    rx.delivered = 0;
    rx.handled = 0;
    rx.last_acked = 0;
    rx.partial_bytes = 0;
  }
  if (d->seq != rx.delivered) {
    // Out of order: either a duplicate (seq < delivered) or a gap after a
    // loss.  Either way go-back-N will resend; re-advertise progress so a
    // sender that missed an ack can move on.
    if (d->seq < rx.delivered) {
      send_ack(d->dst_ep, d->src_ep, rx.epoch, rx.handled);
    }
    return;
  }
  ++rx.delivered;
  if (e.mode == Mode::kInterrupt ||
      e.node->cpu().current() == e.owner) {
    // Interrupt endpoints handle immediately; polling endpoints whose owner
    // is on the CPU right now are actively polling.
    handle_now(e, std::move(d));
  } else {
    e.rx_queue.push_back(std::move(d));
  }
}

void AmLayer::handle_now(Endpoint& e, std::unique_ptr<AmMessage> d) {
  const sim::Duration o_r = params_.costs.recv_overhead(d->frag_bytes);
  e.node->cpu().steal(o_r);
  const EndpointId src_ep = d->src_ep;
  const EndpointId dst_ep = d->dst_ep;
  PairRx& rx = e.rx.find_or_insert(src_ep);
  ++rx.handled;

  bool run_handler = true;
  if (d->bytes > params_.mtu_bytes) {
    // Bulk transfer: the handler fires once the final fragment lands.
    rx.partial_bytes += d->frag_bytes;
    run_handler = d->last;
    if (d->last) {
      assert(rx.partial_bytes == d->bytes);
      rx.partial_bytes = 0;
    }
  }

  // Return credit (coalesced: one ack event flushes all handling that
  // happened at this instant).
  if (!rx.ack_flush_pending) {
    rx.ack_flush_pending = true;
    engine_of(*e.node).schedule_in(0, [this, src_ep, dst_ep] {
      PairRx& r = ep(dst_ep).rx.find_or_insert(src_ep);
      r.ack_flush_pending = false;
      if (r.handled != r.last_acked) {
        r.last_acked = r.handled;
        send_ack(dst_ep, src_ep, r.epoch, r.handled);
      }
    });
  }

  if (run_handler) {
    // The handler body runs once the receiver has spent its overhead
    // processing the message, so end-to-end times include o_recv.
    engine_of(*e.node).schedule_in(o_r, [this, m = std::move(d)] {
      os::Node* node = ep(m->dst_ep).node;
      if (!node->alive()) return;
      const sim::SimTime at = engine_of(*node).now();
      {
        sim::SpinGuard g(stats_lock_);
        ++stats_.handled;
        stats_.msg_latency_us.add(sim::to_us(at - m->injected_at));
      }
      // Full message lifetime, injection to handler start.
      obs::tracer().complete(node->id(), obs_track_, "am.msg",
                             m->injected_at, at);
      Endpoint& e2 = ep(m->dst_ep);
      assert(m->handler < e2.handlers.size() && e2.handlers[m->handler] &&
             "no handler registered");
      e2.handlers[m->handler](*m);
    });
  }
}

void AmLayer::send_ack(EndpointId from_ep, EndpointId to_ep,
                       std::uint32_t epoch, std::uint32_t cum_seq) {
  os::Node& n = *ep(from_ep).node;
  if (!n.alive()) return;
  {
    sim::SpinGuard g(stats_lock_);
    ++stats_.acks;
  }
  const sim::Duration cost =
      params_.costs.send_fixed / params_.ack_cost_divisor;
  n.cpu().steal(cost);
  const sim::SimTime at = mux_.reserve_stack(n.id(), cost);
  auto ack = std::make_unique<AmAck>();
  ack->src_ep = from_ep;
  ack->dst_ep = to_ep;
  ack->epoch = epoch;
  ack->cum_seq = cum_seq;
  net::Packet pkt;
  pkt.src = n.id();
  pkt.dst = ep(to_ep).node->id();
  pkt.size_bytes = 16;
  pkt.tag = ack_tag_;
  pkt.frame = std::move(ack);
  auto inject = [this, p = std::move(pkt)]() mutable {
    mux_.send(std::move(p));
  };
  static_assert(sim::InlinedCallback::fits_inline<decltype(inject)>(),
                "a packet-carrying closure must not allocate");
  engine_of(n).schedule_at(at, std::move(inject));
}

void AmLayer::on_ack(const AmAck& a) {
  // Runs at ack delivery on the data sender's node — the lane owning tx.
  PairTx* const found = find_tx(a.dst_ep, a.src_ep);
  if (found == nullptr) return;
  PairTx& tx = *found;
  if (a.epoch != tx.epoch) return;  // ack for a dead generation
  bool advanced = false;
  while (tx.next_seq != tx.base && tx.base < a.cum_seq) {
    tx.queue.pop_front();
    ++tx.base;
    advanced = true;
  }
  if (advanced) {
    tx.timeouts = 0;
    if (tx.timer != 0) {
      sim::Engine& eng = engine_of(*ep(a.dst_ep).node);
      if (tx.next_seq == tx.base) {
        eng.cancel(tx.timer);
        tx.timer = 0;
      } else {
        // Frames still in flight: restart the retransmit clock by moving the
        // pending timer in place — its closure already names this pair, so
        // cancel + schedule would rebuild an identical event.
        tx.timer = eng.reschedule_in(tx.timer, params_.retry_timeout);
        assert(tx.timer != 0);
      }
    }
    pump_window(a.dst_ep, a.src_ep, tx);
  }
}

void AmLayer::drain_polling(net::NodeId node, os::ProcessId pid) {
  const auto nit = pollers_.find(node);
  if (nit == pollers_.end()) return;
  const auto pit = nit->second.find(pid);
  if (pit == nit->second.end()) return;
  for (const EndpointId id : pit->second) {
    Endpoint& e = ep(id);
    // handle_now only schedules; nothing it does appends to this queue.
    for (std::unique_ptr<AmMessage>& d : e.rx_queue) {
      handle_now(e, std::move(d));
    }
    e.rx_queue.clear();
  }
}

}  // namespace now::proto
