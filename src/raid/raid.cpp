#include "raid/raid.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace now::raid {

namespace {
using proto::RaidIo;

/// Fires `done` once `n` sub-operations have completed.
class Join {
 public:
  Join(std::size_t n, SoftwareRaid::Done done)
      : remaining_(n), done_(std::move(done)) {
    assert(n > 0);
  }
  void arrive() {
    if (--remaining_ == 0 && done_) done_();
  }

 private:
  std::size_t remaining_;
  SoftwareRaid::Done done_;
};

std::shared_ptr<Join> make_join(std::size_t n, SoftwareRaid::Done done) {
  return std::make_shared<Join>(n, std::move(done));
}
}  // namespace

void install_storage_service(proto::RpcLayer& rpc, os::Node& node) {
  rpc.register_method(
      node.id(), kRaidRead,
      [&node](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        const auto io = std::get<RaidIo>(req);
        node.disk().read(io.offset, io.bytes,
                         [reply = std::move(reply), io] {
                           reply(io.bytes, {});
                         });
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

std::vector<SoftwareRaid::Target> SoftwareRaid::map_range(
    std::uint64_t offset, std::uint32_t bytes) const {
  std::vector<Target> out;
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
    out.push_back(Target{member, row * unit + in_unit, take});
    pos += take;
  }
  return out;
}

void SoftwareRaid::issue_read(net::NodeId client, const Target& t,
                              Done done) {
  rpc_.call(client, members_[t.member]->id(), kRaidRead, 64,
            RaidIo{t.disk_offset, t.bytes, false},
            [done = std::move(done)](proto::Body) { done(); });
}

void SoftwareRaid::issue_write(net::NodeId client, const Target& t,
                               Done done) {
  rpc_.call(client, members_[t.member]->id(), kRaidWrite, t.bytes + 64,
            RaidIo{t.disk_offset, t.bytes, true},
            [done = std::move(done)](proto::Body) { done(); });
}

void SoftwareRaid::read(net::NodeId client, std::uint64_t offset,
                        std::uint32_t bytes, Done done) {
  ++stats_.reads;
  stats_.bytes_read += bytes;
  const auto targets = map_range(offset, bytes);

  // Physical reads: one per healthy target; a degraded target fans out to
  // every survivor (data + parity) plus one arrival for the client XOR.
  const std::size_t survivors = members_.size() - failed_.size();
  std::size_t ops = 0;
  for (const Target& t : targets) {
    ops += is_failed(t.member) ? survivors + 1 : 1;
  }
  auto join = make_join(std::max<std::size_t>(ops, 1), std::move(done));
  if (targets.empty()) {
    join->arrive();
    return;
  }

  for (const Target& t : targets) {
    if (!is_failed(t.member)) {
      issue_read(client, t, [join] { join->arrive(); });
      continue;
    }
    assert(params_.level == Level::kRaid5 &&
           "RAID-0 cannot read a failed member");
    ++stats_.degraded_reads;
    const std::uint64_t row = t.disk_offset / params_.stripe_unit;
    for (std::size_t m = 0; m < members_.size(); ++m) {
      if (m == t.member || is_failed(m)) continue;
      issue_read(client,
                 Target{m, row * params_.stripe_unit, params_.stripe_unit},
                 [join] { join->arrive(); });
    }
    // The client-side XOR completes the reconstruction (its CPU cost is
    // folded into the RPC transfer costs).
    join->arrive();
  }
}

void SoftwareRaid::write(net::NodeId client, std::uint64_t offset,
                         std::uint32_t bytes, Done done) {
  ++stats_.writes;
  stats_.bytes_written += bytes;
  const auto targets = map_range(offset, bytes);

  if (params_.level == Level::kRaid0) {
    auto join = make_join(std::max<std::size_t>(targets.size(), 1),
                          std::move(done));
    if (targets.empty()) {
      join->arrive();
      return;
    }
    for (const Target& t : targets) {
      assert(!is_failed(t.member) && "RAID-0 write to failed member");
      issue_write(client, t, [join] { join->arrive(); });
    }
    return;
  }

  // RAID-5: group by stripe row to detect full-stripe writes.
  const std::uint64_t unit = params_.stripe_unit;
  const std::size_t d = data_units_per_row();
  std::unordered_map<std::uint64_t, std::uint64_t> row_cover;
  for (const Target& t : targets) {
    row_cover[t.disk_offset / unit] += t.bytes;
  }

  // Arrivals: full-stripe -> 1 per data target + 1 per row for parity;
  // partial -> 2 per target (data write + parity write; the preceding
  // reads gate the writes rather than joining themselves).
  std::size_t ops = 0;
  for (const Target& t : targets) {
    const bool full = row_cover[t.disk_offset / unit] == d * unit;
    ops += full ? 1 : 2;
  }
  for (const auto& [row, cover] : row_cover) {
    if (cover == d * unit) ++ops;  // the row's parity write (or skip slot)
  }

  auto join = make_join(std::max<std::size_t>(ops, 1), std::move(done));
  if (targets.empty()) {
    join->arrive();
    return;
  }

  std::unordered_set<std::uint64_t> parity_written;
  for (const Target& t : targets) {
    const std::uint64_t row = t.disk_offset / unit;
    const bool full = row_cover[row] == d * unit;
    const std::size_t p = parity_member(row);
    const Target parity_target{p, row * unit,
                               static_cast<std::uint32_t>(unit)};
    if (full) {
      ++stats_.full_stripe_writes;
      if (!is_failed(t.member)) {
        issue_write(client, t, [join] { join->arrive(); });
      } else {
        join->arrive();  // lost member: its data is implied by parity
      }
      if (parity_written.insert(row).second) {
        if (!is_failed(p)) {
          issue_write(client, parity_target, [join] { join->arrive(); });
        } else {
          join->arrive();
        }
      }
      continue;
    }
    ++stats_.parity_updates;
    if (is_failed(p) || is_failed(t.member)) {
      // Degraded small write: update whichever of {data, parity} survives.
      const Target alive = is_failed(t.member) ? parity_target : t;
      issue_write(client, alive, [join] { join->arrive(); });
      join->arrive();
      continue;
    }
    // Read-modify-write: read old data and old parity in parallel, then
    // write both.
    auto reads_left = std::make_shared<int>(2);
    const Target data_target = t;
    auto continue_writes = [this, client, data_target, parity_target, join,
                            reads_left] {
      if (--*reads_left > 0) return;
      issue_write(client, data_target, [join] { join->arrive(); });
      issue_write(client, parity_target, [join] { join->arrive(); });
    };
    issue_read(client, data_target, continue_writes);
    issue_read(client, parity_target, continue_writes);
  }
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
    auto join = make_join(survivors + 1, [step] {
      if (*step) (*step)();
    });
    for (std::size_t m = 0; m < members_.size(); ++m) {
      if (m == idx || is_failed(m)) continue;
      issue_read(driver,
                 Target{m, row * unit, static_cast<std::uint32_t>(unit)},
                 [join] { join->arrive(); });
    }
    replacement.disk().write(row * unit, static_cast<std::uint32_t>(unit),
                             [join] { join->arrive(); });
  };
  (*step)();
}

}  // namespace now::raid
