#include "netram/pager.hpp"

#include <cassert>

namespace now::netram {

void DiskPager::page_in(std::uint64_t page, std::function<void()> done) {
  if (!materialized(page)) {
    // Zero-fill: first touch of a virtual page never costs a disk access.
    node_.engine().schedule_in(node_.copy_cost(page_bytes_) / 4,
                               std::move(done));
    return;
  }
  ++reads_;
  node_.disk().read(swap_offset_ + page * page_bytes_, page_bytes_,
                    std::move(done));
}

void DiskPager::page_out(std::uint64_t page, std::function<void()> done) {
  ++writes_;
  written_[page] = true;
  node_.disk().write(swap_offset_ + page * page_bytes_, page_bytes_,
                     std::move(done));
}

void install_donor_service(proto::RpcLayer& rpc, os::Node& node) {
  const net::NodeId id = node.id();
  // Donor-side handlers only pay a page copy: the data lands in (or leaves)
  // donated DRAM.  Capacity accounting happens at the registry.
  rpc.register_method(
      id, kNetRamWrite,
      [&node](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        const auto bytes = std::get<std::uint32_t>(req);
        node.engine().schedule_in(node.copy_cost(bytes),
                                  [reply = std::move(reply)] {
                                    reply(16, {});
                                  });
      });
  rpc.register_method(
      id, kNetRamRead,
      [&node](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        const auto bytes = std::get<std::uint32_t>(req);
        node.engine().schedule_in(node.copy_cost(bytes),
                                  [reply = std::move(reply), bytes] {
                                    reply(bytes, {});
                                  });
      });
}

NetworkRamPager::NetworkRamPager(os::Node& client, std::uint32_t page_bytes,
                                 IdleMemoryRegistry& registry,
                                 proto::RpcLayer& rpc, bool readahead,
                                 std::size_t readahead_window)
    : client_(client), page_bytes_(page_bytes), registry_(registry),
      rpc_(rpc), readahead_(readahead),
      readahead_window_(readahead_window),
      disk_fallback_(client, page_bytes),
      obs_track_(obs::tracer().track("netram")),
      stats_obs_("netram", [this](obs::Sink& s) {
        s.counter("remote_reads", stats_.remote_reads);
        s.counter("remote_writes", stats_.remote_writes);
        s.counter("disk_fallback_reads", stats_.disk_fallback_reads);
        s.counter("disk_fallback_writes", stats_.disk_fallback_writes);
        s.counter("rehomed_pages", stats_.rehomed_pages);
        s.counter("lost_pages", stats_.lost_pages);
        s.counter("prefetches", stats_.prefetches);
        s.counter("prefetch_hits", stats_.prefetch_hits);
      }) {
  registry_.add_observer([this](net::NodeId id, bool graceful) {
    on_donor_gone(id, graceful);
  });
}

std::size_t NetworkRamPager::remote_pages() const {
  std::size_t n = 0;
  for (const auto& [page, loc] : where_) {
    if (!loc.on_disk) ++n;
  }
  return n;
}

void NetworkRamPager::page_out(std::uint64_t page,
                               std::function<void()> done) {
  // A dirty eviction supersedes any readahead copy of this page.
  prefetched_.erase(page);
  prefetch_inflight_.erase(page);
  const auto it = where_.find(page);
  if (it != where_.end() && !it->second.on_disk) {
    // Rewrite in place on the donor already holding this page.
    store_remote(page, it->second.donor, std::move(done));
    return;
  }
  const net::NodeId donor = registry_.acquire(page_bytes_, client_.id());
  if (donor != net::kInvalidNode) {
    where_[page] = Location{false, donor};
    store_remote(page, donor, std::move(done));
    return;
  }
  // Donor pool exhausted: thrash to the local disk like it's 1989.
  where_[page] = Location{true, net::kInvalidNode};
  store_disk(page, std::move(done));
}

void NetworkRamPager::store_remote(std::uint64_t page, net::NodeId donor,
                                   std::function<void()> done) {
  ++stats_.remote_writes;
  (void)page;
  const sim::SimTime t0 = client_.engine().now();
  rpc_.call(client_.id(), donor, kNetRamWrite, page_bytes_ + 64,
            std::uint32_t{page_bytes_},
            [this, t0, done = std::move(done)](proto::Body) {
              obs::tracer().complete(client_.id(), obs_track_, "remote_write",
                                     t0, client_.engine().now());
              done();
            });
}

void NetworkRamPager::store_disk(std::uint64_t page,
                                 std::function<void()> done) {
  ++stats_.disk_fallback_writes;
  disk_fallback_.page_out(page, std::move(done));
}

void NetworkRamPager::page_in(std::uint64_t page,
                              std::function<void()> done) {
  if (readahead_) maybe_prefetch(page + 1);
  if (prefetched_.erase(page) > 0) {
    // Readahead already streamed it in; only the local copy remains.
    ++stats_.prefetch_hits;
    client_.engine().schedule_in(client_.copy_cost(page_bytes_),
                                 std::move(done));
    return;
  }
  const auto it = where_.find(page);
  if (it == where_.end()) {
    // Never paged out: zero-fill.
    client_.engine().schedule_in(client_.copy_cost(page_bytes_) / 4,
                                 std::move(done));
    return;
  }
  if (it->second.on_disk) {
    ++stats_.disk_fallback_reads;
    disk_fallback_.page_in(page, std::move(done));
    return;
  }
  ++stats_.remote_reads;
  const sim::SimTime t0 = client_.engine().now();
  rpc_.call(client_.id(), it->second.donor, kNetRamRead, 64,
            std::uint32_t{page_bytes_},
            [this, t0, done = std::move(done)](proto::Body) {
              obs::tracer().complete(client_.id(), obs_track_, "remote_read",
                                     t0, client_.engine().now());
              done();
            });
}

void NetworkRamPager::maybe_prefetch(std::uint64_t page) {
  if (prefetched_.contains(page) || prefetch_inflight_.contains(page)) {
    return;
  }
  const auto it = where_.find(page);
  if (it == where_.end() || it->second.on_disk) return;
  prefetch_inflight_.insert(page);
  ++stats_.prefetches;
  rpc_.call(client_.id(), it->second.donor, kNetRamRead, 64,
            std::uint32_t{page_bytes_}, [this, page](proto::Body) {
              if (prefetch_inflight_.erase(page) == 0) return;
              prefetched_.insert(page);
              prefetch_order_.push_back(page);
              while (prefetch_order_.size() > readahead_window_) {
                prefetched_.erase(prefetch_order_.front());
                prefetch_order_.pop_front();
              }
            });
}

void NetworkRamPager::on_donor_gone(net::NodeId id, bool graceful) {
  obs::tracer().instant(client_.id(), obs_track_,
                        graceful ? "donor_revoked" : "donor_crashed");
  for (auto& [page, loc] : where_) {
    if (loc.on_disk || loc.donor != id) continue;
    if (graceful) {
      // Re-home: fetch from the departing donor and push to a new one (or
      // disk).  Costs one read plus one write.
      ++stats_.rehomed_pages;
      const net::NodeId fresh = registry_.acquire(page_bytes_, client_.id());
      const std::uint64_t p = page;
      auto finish = [this, p, fresh] {
        if (fresh != net::kInvalidNode) {
          store_remote(p, fresh, [] {});
        } else {
          store_disk(p, [] {});
        }
      };
      rpc_.call(client_.id(), id, kNetRamRead, 64,
                std::uint32_t{page_bytes_},
                [finish = std::move(finish)](proto::Body) { finish(); });
      loc = fresh != net::kInvalidNode
                ? Location{false, fresh}
                : Location{true, net::kInvalidNode};
    } else {
      // Crash: contents gone; the page reads as zero-fill next time.
      ++stats_.lost_pages;
      loc = Location{};
      // Erasing while iterating is awkward; mark instead.
    }
  }
  if (!graceful) {
    std::erase_if(where_, [](const auto& kv) {
      return !kv.second.on_disk && kv.second.donor == net::kInvalidNode;
    });
  }
}

}  // namespace now::netram
