// Common network-layer types.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/time.hpp"

namespace now::net {

/// Identifies a workstation (or MPP node) attached to the network.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// What a packet carries above the wire fields: one protocol frame (an AM
/// data frame, an AM ack, a TCP segment).  The wire never looks inside; the
/// layer that owns the packet's tag defines the concrete frame type.
struct Frame {
  Frame() = default;
  Frame(const Frame&) = default;
  Frame(Frame&&) = default;
  Frame& operator=(const Frame&) = default;
  Frame& operator=(Frame&&) = default;
  virtual ~Frame() = default;
};

/// One message travelling through the network.  The simulator carries
/// metadata, not real bytes: `size_bytes` is what the wire is charged for,
/// and the frame is what the receiving layer reads.
struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t size_bytes = 0;
  /// Protocol-level multiplexing tag: one per (layer, frame type).
  std::uint32_t tag = 0;
  /// Time the sender handed the packet to the wire (set by the network).
  sim::SimTime sent_at = 0;
  /// One allocation per packet, owned by whoever holds the packet.  Kept to
  /// a single pointer so a `[this, packet]` closure fits the engine's
  /// inline callback buffer.
  std::unique_ptr<Frame> frame;
};

/// Physical parameters of one fabric, in the paper's own vocabulary:
/// wire/switch *latency* (time in the network, overlappable with compute)
/// and link *bandwidth* (serialization).  CPU *overhead* is charged by the
/// protocol layers, not here — keeping the paper's overhead-vs-latency
/// distinction explicit in the code structure.
struct FabricParams {
  /// Bits per second on each link (shared-medium fabrics: on the medium).
  double link_bandwidth_bps = 10e6;
  /// One-way latency through wire + switch fabric, excluding serialization.
  sim::Duration latency = 50 * sim::kMicrosecond;
  /// Fixed per-packet framing bytes added on the wire (headers, ATM cell
  /// padding is modelled separately by cell_bytes below).
  std::uint32_t header_bytes = 0;
  /// If nonzero, payloads are carried in fixed-size cells (ATM: 53-byte
  /// cells with a 48-byte payload) and serialization rounds up accordingly.
  std::uint32_t cell_bytes = 0;
  std::uint32_t cell_payload_bytes = 0;
  /// Cut-through / wormhole switching: a packet's head exits the switch
  /// while its tail is still entering, so an uncontended transfer pays one
  /// serialization, not two.  True for ATM (cell pipelining), Myrinet and
  /// MPP fabrics; false models store-and-forward.
  bool cut_through = false;

  /// Serialization time for `bytes` of payload on one link.
  sim::Duration serialization(std::uint32_t bytes) const;
};

}  // namespace now::net
