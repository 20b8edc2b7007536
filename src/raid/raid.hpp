// Redundant arrays of workstation disks — the paper's software RAID.
//
// Instead of a hardware RAID box behind one (failure-prone, expensive) host,
// data is striped in software across the disks *inside* the workstations,
// with the fast network as the I/O backplane.  Aggregate bandwidth scales
// with the number of member disks up to the client's link bandwidth, and
// there is no central controller to fail: any client can drive the array,
// and a lost member is reconstructed from parity onto a replacement.
//
// Levels:
//   kRaid0 — striping only (bandwidth, no redundancy).
//   kRaid5 — striping + rotating parity: small writes do the classic
//            read-modify-write (4 I/Os); reads of a failed member
//            reconstruct from the surviving stripe units.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "proto/rpc.hpp"
#include "sim/slot_table.hpp"

namespace now::raid {

/// Abstract block storage: what the xFS log writes into.  Implemented by
/// one SoftwareRaid and by StripeGroupArray (many RAIDs behind one address
/// space).  Besides the data path, the interface carries the membership
/// operations fault injection needs, so callers (Cluster, FaultInjector)
/// treat either backend uniformly.
class Storage {
 public:
  virtual ~Storage() = default;
  using Done = std::function<void()>;
  virtual void read(net::NodeId client, std::uint64_t offset,
                    std::uint32_t bytes, Done done) = 0;
  virtual void write(net::NodeId client, std::uint64_t offset,
                     std::uint32_t bytes, Done done) = 0;

  // --- Membership / failure handling ---
  /// True if `id`'s disk holds part of this address space.
  virtual bool is_member(net::NodeId id) const = 0;
  /// Marks member `id` lost (no-op for non-members).
  virtual void member_failed(net::NodeId id) = 0;
  /// True if member `id` is currently marked lost.
  virtual bool member_down(net::NodeId id) const = 0;
  /// True if any member is down.
  virtual bool degraded() const = 0;
  /// True if a lost member can be rebuilt from redundancy (RAID-5).
  virtual bool redundant() const = 0;
  /// Rebuilds lost member `failed` onto `replacement` with real
  /// reconstruction traffic (survivor reads + replacement-disk writes);
  /// `done` fires when the array is whole again.  Requires member_down and
  /// redundant().
  virtual void reconstruct_member(net::NodeId failed, os::Node& replacement,
                                  Done done,
                                  std::uint64_t rebuild_bytes_per_member) = 0;
};

enum class Level { kRaid0, kRaid5 };

/// RPC methods served by every member's storage daemon.
inline constexpr proto::MethodId kRaidRead = 110;
inline constexpr proto::MethodId kRaidWrite = 111;

/// Installs the storage daemon on a member node: read/write requests hit
/// the local disk and reply with (or absorb) the data.
void install_storage_service(proto::RpcLayer& rpc, os::Node& node);

struct RaidParams {
  Level level = Level::kRaid5;
  /// Stripe unit (bytes of consecutive data per member before moving on).
  std::uint32_t stripe_unit = 32 * 1024;
};

struct RaidStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t degraded_reads = 0;    // served by reconstruction
  std::uint64_t parity_updates = 0;    // small-write read-modify-writes
  std::uint64_t full_stripe_writes = 0;
};

class SoftwareRaid final : public Storage {
 public:
  using Done = Storage::Done;

  /// `members` are the workstations contributing their disks.
  SoftwareRaid(proto::RpcLayer& rpc, std::vector<os::Node*> members,
               RaidParams params);
  SoftwareRaid(const SoftwareRaid&) = delete;
  SoftwareRaid& operator=(const SoftwareRaid&) = delete;

  /// Reads `bytes` at logical `offset`, issued from `client` (any node on
  /// the network, possibly itself a member).  `done` fires when every
  /// stripe unit has arrived.
  void read(net::NodeId client, std::uint64_t offset, std::uint32_t bytes,
            Done done) override;

  /// Writes `bytes` at logical `offset`.  RAID-5 charges parity I/O:
  /// full-stripe writes compute parity client-side, partial writes
  /// read-modify-write.
  void write(net::NodeId client, std::uint64_t offset, std::uint32_t bytes,
             Done done) override;

  /// Marks a member dead (its node crashed); subsequent reads touching it
  /// reconstruct from the others (RAID-5) — RAID-0 reads of it fail the
  /// assertion, as RAID-0 has no redundancy.  No-op for non-members.
  void member_failed(net::NodeId id) override;

  /// Rebuilds the failed member's contents onto `replacement` by reading
  /// every surviving member and writing reconstructed units.  `done` fires
  /// when the rebuild completes and the array is whole again.
  void reconstruct(net::NodeId failed, os::Node& replacement, Done done,
                   std::uint64_t rebuild_bytes_per_member = 8 << 20);

  bool is_member(net::NodeId id) const override;
  bool member_down(net::NodeId id) const override {
    return failed_.contains(id);
  }
  bool redundant() const override {
    return params_.level == Level::kRaid5;
  }
  void reconstruct_member(net::NodeId failed, os::Node& replacement,
                          Done done,
                          std::uint64_t rebuild_bytes_per_member) override {
    reconstruct(failed, replacement, std::move(done),
                rebuild_bytes_per_member);
  }

  bool degraded() const override { return !failed_.empty(); }
  std::size_t width() const { return members_.size(); }
  const RaidStats& stats() const { return stats_; }
  const RaidParams& params() const { return params_; }

  /// Number of data (non-parity) units per stripe row.
  std::size_t data_units_per_row() const {
    return params_.level == Level::kRaid5 ? members_.size() - 1
                                          : members_.size();
  }

 private:
  struct Target {
    std::size_t member;        // index into members_
    std::uint64_t disk_offset;
    std::uint32_t bytes;
  };

  /// Fires `done` once `remaining` sub-operations have arrived.
  struct Join {
    std::size_t remaining;
    Done done;
  };
  /// A RAID-5 small write's read-modify-write: the old data and old
  /// parity are read, then both are written, each write arriving at `join`.
  struct Rmw {
    net::NodeId client;
    Target data;
    Target parity;
    std::uint32_t join;
    int reads_left;
  };

  /// Calls `visit(target)` for each member stripe unit a logical byte
  /// range covers, in logical order (ascending stripe row).  Nothing is
  /// built: a caller that needs the targets twice maps the range twice.
  template <typename F>
  void map_range(std::uint64_t offset, std::uint32_t bytes,
                 F&& visit) const;
  std::size_t parity_member(std::uint64_t row) const;
  bool is_failed(std::size_t member) const;
  std::uint32_t open_join(std::size_t n, Done done);
  void arrive(std::uint32_t join);
  void rmw_read_done(std::uint32_t rmw);
  /// Reads or writes one stripe unit; `then()` runs when it is done.
  template <typename F>
  void issue_read(net::NodeId client, const Target& t, F then);
  template <typename F>
  void issue_write(net::NodeId client, const Target& t, F then);

  proto::RpcLayer& rpc_;
  std::vector<os::Node*> members_;
  RaidParams params_;
  std::unordered_set<net::NodeId> failed_;
  // In-flight reads' and writes' joins and read-modify-writes, recycled,
  // so each continuation captures only `this` and an index.
  sim::SlotTable<Join> joins_;
  sim::SlotTable<Rmw> rmws_;
  RaidStats stats_;
};

}  // namespace now::raid
