#include "raid/raid.hpp"

#include <algorithm>
#include <cassert>

namespace now::raid {

using proto::RaidIo;

void install_storage_service(proto::RpcLayer& rpc, os::Node& node) {
  rpc.register_method(
      node.id(), kRaidRead,
      [&node](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        const auto io = std::get<RaidIo>(req);
        auto done = [reply = std::move(reply), bytes = io.bytes] {
          reply(bytes, {});
        };
        static_assert(os::Disk::Done::fits_inline<decltype(done)>(),
                      "a disk completion must not allocate");
        node.disk().read(io.offset, io.bytes, std::move(done));
      });
  rpc.register_method(
      node.id(), kRaidWrite,
      [&node](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        const auto io = std::get<RaidIo>(req);
        node.disk().write(io.offset, io.bytes,
                          [reply = std::move(reply)] { reply(16, {}); });
      });
}

SoftwareRaid::SoftwareRaid(proto::RpcLayer& rpc,
                           std::vector<os::Node*> members, RaidParams params)
    : rpc_(rpc), members_(std::move(members)), params_(params) {
  assert(members_.size() >= 2);
  assert(params_.level != Level::kRaid5 || members_.size() >= 3);
}

std::size_t SoftwareRaid::parity_member(std::uint64_t row) const {
  return static_cast<std::size_t>(row % members_.size());
}

bool SoftwareRaid::is_failed(std::size_t member) const {
  return failed_.contains(members_[member]->id());
}

template <typename F>
void SoftwareRaid::map_range(std::uint64_t offset, std::uint32_t bytes,
                             F&& visit) const {
  const std::uint64_t unit = params_.stripe_unit;
  const std::uint64_t d = data_units_per_row();
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + bytes;
  while (pos < end) {
    const std::uint64_t u = pos / unit;  // logical data unit index
    const std::uint64_t row = u / d;
    const std::uint64_t col = u % d;
    const std::uint64_t in_unit = pos % unit;
    const auto take = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(unit - in_unit, end - pos));
    auto member = static_cast<std::size_t>(col);
    if (params_.level == Level::kRaid5) {
      const std::size_t p = parity_member(row);
      if (member >= p) ++member;  // skip the parity slot in this row
    }
    visit(Target{member, row * unit + in_unit, take});
    pos += take;
  }
}

std::uint32_t SoftwareRaid::open_join(std::size_t n, Done done) {
  assert(n > 0);
  return joins_.open(Join{n, std::move(done)});
}

void SoftwareRaid::arrive(std::uint32_t join) {
  if (--joins_[join].remaining != 0) return;
  const Join j = joins_.release(join);
  if (j.done) j.done();
}

template <typename F>
void SoftwareRaid::issue_read(net::NodeId client, const Target& t, F then) {
  rpc_.call(client, members_[t.member]->id(), kRaidRead, 64,
            RaidIo{t.disk_offset, t.bytes, false},
            [then](proto::Body&&) mutable { then(); });
}

template <typename F>
void SoftwareRaid::issue_write(net::NodeId client, const Target& t, F then) {
  rpc_.call(client, members_[t.member]->id(), kRaidWrite, t.bytes + 64,
            RaidIo{t.disk_offset, t.bytes, true},
            [then](proto::Body&&) mutable { then(); });
}

void SoftwareRaid::read(net::NodeId client, std::uint64_t offset,
                        std::uint32_t bytes, Done done) {
  ++stats_.reads;
  stats_.bytes_read += bytes;

  // Physical reads: one per healthy target; a degraded target fans out to
  // every survivor (data + parity) plus one arrival for the client XOR.
  const std::size_t survivors = members_.size() - failed_.size();
  std::size_t ops = 0;
  map_range(offset, bytes, [&](const Target& t) {
    ops += is_failed(t.member) ? survivors + 1 : 1;
  });
  const std::uint32_t join =
      open_join(std::max<std::size_t>(ops, 1), std::move(done));
  if (ops == 0) {
    arrive(join);
    return;
  }
  const auto arrival = [this, join] { arrive(join); };

  map_range(offset, bytes, [&](const Target& t) {
    if (!is_failed(t.member)) {
      issue_read(client, t, arrival);
      return;
    }
    assert(params_.level == Level::kRaid5 &&
           "RAID-0 cannot read a failed member");
    ++stats_.degraded_reads;
    const std::uint64_t row = t.disk_offset / params_.stripe_unit;
    for (std::size_t m = 0; m < members_.size(); ++m) {
      if (m == t.member || is_failed(m)) continue;
      issue_read(client,
                 Target{m, row * params_.stripe_unit, params_.stripe_unit},
                 arrival);
    }
    // The client-side XOR completes the reconstruction (its CPU cost is
    // folded into the RPC transfer costs).
    arrive(join);
  });
}

void SoftwareRaid::write(net::NodeId client, std::uint64_t offset,
                         std::uint32_t bytes, Done done) {
  ++stats_.writes;
  stats_.bytes_written += bytes;

  if (params_.level == Level::kRaid0) {
    std::size_t targets = 0;
    map_range(offset, bytes, [&](const Target&) { ++targets; });
    const std::uint32_t join =
        open_join(std::max<std::size_t>(targets, 1), std::move(done));
    if (targets == 0) {
      arrive(join);
      return;
    }
    map_range(offset, bytes, [&](const Target& t) {
      assert(!is_failed(t.member) && "RAID-0 write to failed member");
      issue_write(client, t, [this, join] { arrive(join); });
    });
    return;
  }

  // RAID-5: a row the range covers whole is a full-stripe write.  Targets
  // come in ascending row order, so a row's first target is the one whose
  // row differs from the previous target's.
  const std::uint64_t unit = params_.stripe_unit;
  const std::size_t d = data_units_per_row();
  const std::uint64_t row_bytes = d * unit;
  const std::uint64_t end = offset + bytes;
  const auto full_row = [&](std::uint64_t row) {
    const std::uint64_t lo = std::max(offset, row * row_bytes);
    const std::uint64_t hi = std::min(end, (row + 1) * row_bytes);
    return hi - lo == row_bytes;
  };

  // Arrivals: full-stripe -> 1 per data target + 1 per row for parity;
  // partial -> 2 per target (data write + parity write; the preceding
  // reads gate the writes rather than joining themselves).
  std::size_t ops = 0;
  std::uint64_t last_row = ~std::uint64_t{0};
  map_range(offset, bytes, [&](const Target& t) {
    const std::uint64_t row = t.disk_offset / unit;
    const bool full = full_row(row);
    ops += full ? 1 : 2;
    if (full && row != last_row) ++ops;  // the row's parity write
    last_row = row;
  });

  const std::uint32_t join =
      open_join(std::max<std::size_t>(ops, 1), std::move(done));
  if (ops == 0) {
    arrive(join);
    return;
  }
  const auto arrival = [this, join] { arrive(join); };

  last_row = ~std::uint64_t{0};
  map_range(offset, bytes, [&](const Target& t) {
    const std::uint64_t row = t.disk_offset / unit;
    const bool first_in_row = row != last_row;
    last_row = row;
    const std::size_t p = parity_member(row);
    const Target parity_target{p, row * unit,
                               static_cast<std::uint32_t>(unit)};
    if (full_row(row)) {
      ++stats_.full_stripe_writes;
      if (!is_failed(t.member)) {
        issue_write(client, t, arrival);
      } else {
        arrive(join);  // lost member: its data is implied by parity
      }
      if (first_in_row) {
        if (!is_failed(p)) {
          issue_write(client, parity_target, arrival);
        } else {
          arrive(join);
        }
      }
      return;
    }
    ++stats_.parity_updates;
    if (is_failed(p) || is_failed(t.member)) {
      // Degraded small write: update whichever of {data, parity} survives.
      const Target alive = is_failed(t.member) ? parity_target : t;
      issue_write(client, alive, arrival);
      arrive(join);
      return;
    }
    // Read-modify-write: read old data and old parity in parallel, then
    // write both.
    const std::uint32_t rmw =
        rmws_.open(Rmw{client, t, parity_target, join, 2});
    const auto read_done = [this, rmw] { rmw_read_done(rmw); };
    issue_read(client, t, read_done);
    issue_read(client, parity_target, read_done);
  });
}

void SoftwareRaid::rmw_read_done(std::uint32_t rmw) {
  if (--rmws_[rmw].reads_left > 0) return;
  const Rmw r = rmws_.release(rmw);
  const std::uint32_t join = r.join;
  issue_write(r.client, r.data, [this, join] { arrive(join); });
  issue_write(r.client, r.parity, [this, join] { arrive(join); });
}

bool SoftwareRaid::is_member(net::NodeId id) const {
  for (const os::Node* m : members_) {
    if (m->id() == id) return true;
  }
  return false;
}

void SoftwareRaid::member_failed(net::NodeId id) {
  // Non-members must not poison the survivor count the degraded-read
  // fan-out is computed from.
  if (!is_member(id)) return;
  failed_.insert(id);
}

void SoftwareRaid::reconstruct(net::NodeId failed, os::Node& replacement,
                               Done done,
                               std::uint64_t rebuild_bytes_per_member) {
  assert(params_.level == Level::kRaid5 && "nothing to rebuild on RAID-0");
  assert(failed_.contains(failed));
  std::size_t idx = members_.size();
  for (std::size_t m = 0; m < members_.size(); ++m) {
    if (members_[m]->id() == failed) idx = m;
  }
  assert(idx < members_.size());

  const std::uint64_t unit = params_.stripe_unit;
  const std::uint64_t chunks = std::max<std::uint64_t>(
      rebuild_bytes_per_member / unit, 1);
  const net::NodeId driver = replacement.id();

  // Rebuild chunk-by-chunk: read the row from every survivor, XOR, write
  // the reconstructed unit onto the replacement's disk.
  auto row_counter = std::make_shared<std::uint64_t>(0);
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, row_counter, step, chunks, unit, idx, driver, &replacement,
           failed, done = std::move(done)]() mutable {
    if (*row_counter == chunks) {
      failed_.erase(failed);
      members_[idx] = &replacement;
      if (done) done();
      // Break the self-reference cycle, but not while this lambda is still
      // executing — destroying an active std::function is undefined.
      rpc_.engine().schedule_in(0, [step] { *step = nullptr; });
      return;
    }
    const std::uint64_t row = (*row_counter)++;
    const std::size_t survivors = members_.size() - failed_.size();
    const std::uint32_t join = open_join(survivors + 1, [step] {
      if (*step) (*step)();
    });
    const auto arrival = [this, join] { arrive(join); };
    for (std::size_t m = 0; m < members_.size(); ++m) {
      if (m == idx || is_failed(m)) continue;
      issue_read(driver,
                 Target{m, row * unit, static_cast<std::uint32_t>(unit)},
                 arrival);
    }
    replacement.disk().write(row * unit, static_cast<std::uint32_t>(unit),
                             arrival);
  };
  (*step)();
}

}  // namespace now::raid
