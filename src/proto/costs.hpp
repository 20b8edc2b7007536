// Per-protocol CPU cost models.
//
// The paper's core communications claim is that *processor overhead* — not
// wire bandwidth — dominates real communication performance, and that
// user-level Active Messages cut it by an order of magnitude versus kernel
// TCP.  ProtocolCosts captures each protocol's fixed per-message CPU cost
// plus its per-byte (copy/checksum) cost, per side.  Presets encode the
// numbers the paper reports.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace now::proto {

struct ProtocolCosts {
  /// Fixed per-message sender CPU time (syscall, protocol stack, trap).
  sim::Duration send_fixed = 0;
  /// Fixed per-message receiver CPU time (interrupt, demux, wakeup).
  sim::Duration recv_fixed = 0;
  /// Per-byte CPU time on the sender (data copies, checksum), nanoseconds
  /// per byte.
  double send_per_byte_ns = 0.0;
  /// Per-byte CPU time on the receiver, nanoseconds per byte.
  double recv_per_byte_ns = 0.0;

  sim::Duration send_overhead(std::uint64_t bytes) const {
    return send_fixed + static_cast<sim::Duration>(
                            send_per_byte_ns * static_cast<double>(bytes));
  }
  sim::Duration recv_overhead(std::uint64_t bytes) const {
    return recv_fixed + static_cast<sim::Duration>(
                            recv_per_byte_ns * static_cast<double>(bytes));
  }
};

/// One memory-to-memory copy at Table 2's rate: 250 us per 8 KB => ~30.5
/// ns/byte.  Standard TCP copies twice per side (user<->kernel<->NIC);
/// single-copy TCP once; Active Messages move data directly.
inline constexpr double kCopyNsPerByte = 250'000.0 / 8192.0;

/// Fixed cost divisor for acks/credit packets relative to data messages,
/// in AM and in TCP alike.
inline constexpr std::uint32_t kAckCostDivisor = 4;

/// Active Messages on the CM-5: ~1.7 us (50 cycles / 25 instructions) per
/// send or handle.
ProtocolCosts am_cm5();

/// User-level Active Messages on the Medusa FDDI prototype (HPAM): 8 us of
/// processor overhead per side, including timeout/retry support.
ProtocolCosts am_medusa();

/// Kernel TCP/IP on a 1994 SparcStation-class host: the paper measures
/// 456 us overhead+latency on Ethernet and 626 us on ATM, dominated by
/// system software; two data copies per side.
ProtocolCosts tcp_kernel();

/// Kernel TCP/IP through a 1994 ATM driver: *more* overhead than the
/// Ethernet path (626 us vs 456 us one-way) despite 8x the bandwidth.
ProtocolCosts tcp_kernel_atm();

/// Single-copy TCP: same control path, one less copy per side.
ProtocolCosts tcp_single_copy();

/// PVM daemon-mediated message passing: TCP plus an extra user-level hop.
ProtocolCosts pvm();

}  // namespace now::proto
