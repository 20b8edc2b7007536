// NIC-level demultiplexer.
//
// One Network delivery handler exists per node; several protocol layers
// (Active Messages, the TCP model, xFS RPC traffic) share the wire.  The
// mux owns the per-node attachment, hands each layer a tag, and routes
// arriving packets by tag.  It also models a dead node's NIC going deaf:
// packets addressed to a crashed workstation vanish, which is what forces
// the timeout/retry and takeover paths above.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "net/network.hpp"
#include "os/node.hpp"

namespace now::proto {

class NicMux {
 public:
  using LayerRx = std::function<void(net::Packet&&)>;

  explicit NicMux(net::Network& network) : network_(network) {}
  NicMux(const NicMux&) = delete;
  NicMux& operator=(const NicMux&) = delete;

  /// Registers a protocol layer; returns the tag it must stamp on packets.
  std::uint32_t register_layer(LayerRx rx);

  /// Attaches a workstation's NIC to the network.
  void attach_node(os::Node& node, std::uint32_t rx_buffer_bytes = 0);

  // --- Admission control ------------------------------------------------
  // The paper's answer to "the Achilles' heel of NOWs": "a small amount of
  // hardware in the network interface can ensure that the correct
  // operating system is booted on a machine, before allowing it to connect
  // into the NOW."  With enforcement on, a node must present the expected
  // boot attestation before its traffic is carried; anything it sends (or
  // would receive) is dropped at the interface.

  /// Turns enforcement on.  `expected_key` stands in for the hash of the
  /// blessed operating-system image.  Already-attached nodes must (re-)
  /// admit before they can talk.
  void require_admission(std::uint64_t expected_key);

  /// A node presents its boot attestation; returns whether it was admitted.
  bool admit(net::NodeId node, std::uint64_t boot_key);

  /// Revokes a node's admission (e.g. it rebooted into an unknown kernel).
  void expel(net::NodeId node);

  bool admitted(net::NodeId node) const;
  std::uint64_t rejected_packets() const {
    return rejected_packets_.load(std::memory_order_relaxed);
  }

  /// Injects a packet (pkt.tag must be a registered layer's tag).
  /// Silently dropped if the source node has crashed.
  void send(net::Packet pkt);

  /// Serializes protocol-stack CPU work on a node: reserves `cpu_time` of
  /// stack processing and returns its completion time.  Layers schedule
  /// wire injection at the returned instant, so a host's protocol overhead
  /// — not just the wire — throttles its throughput (the paper's central
  /// measurement: TCP on 155 Mb/s ATM delivers only 78 Mb/s).
  sim::SimTime reserve_stack(net::NodeId id, sim::Duration cpu_time);

  os::Node* node(net::NodeId id) {
    return id < nodes_.size() ? nodes_[id] : nullptr;
  }
  net::Network& network() { return network_; }
  sim::Engine& engine() { return network_.engine(); }

 private:
  void on_delivery(net::Packet&& pkt);

  bool carried(net::NodeId node) const;

  net::Network& network_;
  std::vector<LayerRx> layers_;
  std::vector<os::Node*> nodes_;
  std::vector<sim::SimTime> stack_busy_until_;
  bool enforce_admission_ = false;
  std::uint64_t expected_key_ = 0;
  std::vector<bool> admitted_;
  // Bumped from source lanes (send) and destination lanes (on_delivery).
  std::atomic<std::uint64_t> rejected_packets_{0};
};

}  // namespace now::proto
