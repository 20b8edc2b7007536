// The file-service role both file systems here fill: xFS (serverless) and
// the central server it replaces.  Drivers that only issue block reads and
// writes — the serving workload, the comparison benches, trace replay —
// hold a FileService& and never branch on the design behind it.
#pragma once

#include <cstdint>

#include "net/types.hpp"
#include "sim/callback.hpp"
#include "sim/slot_table.hpp"
#include "sim/time.hpp"
#include "xfs/log.hpp"

namespace now::xfs {

/// File block size of both file services, their log and their RAID stripe
/// unit: Table 3's 8 KB blocks.
inline constexpr std::uint32_t kBlockBytes = 8192;

class FileService {
 public:
  /// Called exactly once per op.  `ok` is false when the op failed: for
  /// xFS, the retry budget ran out; for the central server, the server
  /// was unreachable.  Move-only, and stored inline up to 48 bytes of
  /// captures: the service keeps it in the op's slot (OpSlots) until the
  /// op completes, and every continuation in between names only the slot.
  using OpDone = sim::InlinedFn<void(bool ok)>;

  virtual ~FileService() = default;

  /// Reads block `b` on behalf of `client`.
  virtual void read(net::NodeId client, BlockId b, OpDone done) = 0;

  /// Writes block `b` on behalf of `client`.
  virtual void write(net::NodeId client, BlockId b, OpDone done) = 0;
};

/// One in-flight read or write of a file service.
struct FileOp {
  net::NodeId client = net::kInvalidNode;
  BlockId block = 0;
  bool is_write = false;
  /// Retries so far (xFS; the central server does not retry).
  std::uint32_t attempts = 0;
  sim::SimTime t0 = 0;
  FileService::OpDone done;
};

using OpSlots = sim::SlotTable<FileOp>;

}  // namespace now::xfs
