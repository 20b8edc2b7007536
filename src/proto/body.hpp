// Message bodies: the closed set of payloads the in-tree services exchange
// over Active Messages and RPC.
//
// Each service used to box its messages in a `std::any` and cast them back
// on arrival.  A closed variant stores every one of them inline in the AM
// frame, so sending a message costs no allocation beyond the frame, and a
// mismatch between sender and receiver is a `std::get` that names the type.
//
// One alternative stays open: `std::any`, for user-level payloads (PVM,
// TCP and AM-socket data) and the opaque values that tests, benchmarks and
// examples echo.  Any type not listed converts to it implicitly.
//
// Adding a message: define a plain struct below under its service's
// heading, add it to `Body`, and read it on arrival with
// `std::get<T>(body)` (or `std::get_if` when several types are possible).
#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace now::proto {

// ---- xFS: manager and client services (src/xfs/xfs.cpp) ----------------

/// A client asking a block's manager for read or write access.
struct BlockReq {
  std::uint64_t block;
  net::NodeId requester;
};
enum class ReadSource : std::uint8_t { kZero, kPeer, kLog, kRetry };
/// The manager's answer to a read: where the data comes from.
struct ReadDirective {
  ReadSource source = ReadSource::kZero;
  net::NodeId peer = net::kInvalidNode;
};
/// The manager's answer to a write: ownership granted (and whether a
/// previous owner's data came with it), or try again.
struct WriteGrant {
  bool had_data = false;
  bool retry = false;
};
/// A peer's answer to a cooperative fetch.
struct FetchReply {
  bool found = false;
};
/// A writer telling a manager which of its blocks reached the log.
struct FlushNotice {
  std::vector<std::uint64_t> blocks;
  net::NodeId writer;
};
/// A client telling a manager it dropped a clean copy.
struct EvictNotice {
  std::uint64_t block;
  net::NodeId client;
};
/// One block a survivor reports to a manager rebuilding its directory.
struct ReportEntry {
  std::uint64_t block;
  bool dirty;
};

// ---- Central file server (src/xfs/central_server.cpp) ------------------

struct CfsReq {
  std::uint64_t block;
  bool is_write;
};
struct CfsResp {
  bool from_memory;
};

// ---- Software RAID storage service (src/raid/raid.cpp) -----------------

struct RaidIo {
  std::uint64_t offset;
  std::uint32_t bytes;
  bool is_write;
};

// ---- GLUnix daemons and master (src/glunix/glunix.cpp) -----------------

/// Start a guest: job id, rank (SIZE_MAX for sequential guests), work.
struct SpawnReq {
  std::uint64_t job;
  std::size_t rank;
  sim::Duration work;
};
struct SpawnAck {
  std::uint32_t pid;
};
/// A guest finished: sent from its host to the master.
struct DoneNote {
  std::uint64_t job;
  std::size_t rank;
};

// ---- GLUnix collectives (src/glunix/collectives.cpp) -------------------

struct BcastWire {
  std::uint64_t op;
  std::size_t rank;  // absolute rank of the receiver
};
struct ReduceWire {
  std::uint64_t op;
  std::size_t parent;  // absolute rank receiving the partial
  double value;
};

// ---- Sockets on AM (src/proto/am_sockets.cpp) --------------------------

struct SocketData {
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::any payload;  // the application's own data
};

/// A message body.  Scalars carry single-value arguments: a node, process
/// or byte count (`std::uint32_t`), a block id (`std::uint64_t`), a flag
/// (`bool`).  `std::monostate` is the empty body.
using Body =
    std::variant<std::monostate, bool, std::uint32_t, std::uint64_t,
                 BlockReq, ReadDirective, WriteGrant, FetchReply,
                 FlushNotice, EvictNotice, std::vector<ReportEntry>, CfsReq,
                 CfsResp, RaidIo, SpawnReq, SpawnAck, DoneNote, BcastWire,
                 ReduceWire, SocketData, std::any>;

/// `b` as an opaque value, for callers that deal in `std::any`: the opaque
/// alternative itself, an empty `std::any` for an empty body, otherwise
/// the typed message boxed whole.
inline std::any opaque(Body&& b) {
  if (auto* a = std::get_if<std::any>(&b)) return std::move(*a);
  if (std::holds_alternative<std::monostate>(b)) return {};
  return std::any(std::move(b));
}

}  // namespace now::proto
