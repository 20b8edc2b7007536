// A complete commodity workstation: CPU + DRAM + disk + console, attachable
// to a network.  The NOW building block.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/types.hpp"
#include "os/cpu.hpp"
#include "os/disk.hpp"
#include "sim/engine.hpp"

namespace now::os {

struct NodeParams {
  CpuParams cpu;
  /// Installed DRAM.  The paper's scenarios use 16-128 MB per workstation.
  std::uint64_t dram_bytes = 64ull << 20;
};

/// One workstation.
class Node {
 public:
  Node(sim::Engine& engine, net::NodeId id, NodeParams params)
      : engine_(engine), id_(id), params_(params),
        cpu_(engine, params.cpu), disk_(engine, DiskParams{}, id),
        last_activity_(-(1ll << 62)) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  net::NodeId id() const { return id_; }
  Cpu& cpu() { return cpu_; }
  const Cpu& cpu() const { return cpu_; }
  Disk& disk() { return disk_; }
  const Disk& disk() const { return disk_; }
  sim::Engine& engine() { return engine_; }
  const NodeParams& params() const { return params_; }

  /// Software copy cost for `bytes` (kernel buffer copies, page moves).
  sim::Duration copy_cost(std::uint64_t bytes) const {
    // Software page-copy cost for one 8 KB page (Table 2: 250 us "memory
    // copy"), expressed per KB so other transfer sizes scale.
    constexpr sim::Duration kCopyCostPerKb = sim::from_us(250.0 / 8.0);
    return static_cast<sim::Duration>(
        static_cast<double>(kCopyCostPerKb) *
        (static_cast<double>(bytes) / 1024.0));
  }

  // --- Interactive console -------------------------------------------------
  /// Records keyboard/mouse activity at the current time.  GLUnix's idle
  /// detector (the "one minute" rule) asks user_idle_for().
  void user_activity() { last_activity_ = engine_.now(); }
  /// True if no console input for at least `window`.
  bool user_idle_for(sim::Duration window) const {
    return engine_.now() - last_activity_ >= window;
  }

  // --- Memory accounting ---------------------------------------------------
  /// DRAM not pinned by local work; the Network RAM registry recruits this.
  std::uint64_t dram_bytes() const { return params_.dram_bytes; }
  std::uint64_t dram_in_use() const { return dram_in_use_; }
  std::uint64_t dram_free() const {
    return params_.dram_bytes > dram_in_use_
               ? params_.dram_bytes - dram_in_use_
               : 0;
  }
  /// Claims DRAM; returns false if it would overcommit.
  bool reserve_dram(std::uint64_t bytes);
  void release_dram(std::uint64_t bytes);

  // --- Failure injection ---------------------------------------------------
  bool alive() const { return alive_; }
  /// Kills the node: every process dies, DRAM contents are lost, the NIC
  /// goes deaf (protocol layers check alive() before delivering).
  void crash();
  /// Brings the node back with empty memory.
  void reboot();

 private:
  sim::Engine& engine_;
  net::NodeId id_;
  NodeParams params_;
  Cpu cpu_;
  Disk disk_;
  sim::SimTime last_activity_;
  std::uint64_t dram_in_use_ = 0;
  bool alive_ = true;
};

}  // namespace now::os
