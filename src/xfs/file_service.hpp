// The file-service role both file systems here fill: xFS (serverless) and
// the central server it replaces.  Drivers that only issue block reads and
// writes — the serving workload, the comparison benches, trace replay —
// hold a FileService& and never branch on the design behind it.
#pragma once

#include <functional>

#include "net/types.hpp"
#include "xfs/log.hpp"

namespace now::xfs {

class FileService {
 public:
  /// Called exactly once per op.  `ok` is false when the op failed: for
  /// xFS, the retry budget ran out; for the central server, the server
  /// was unreachable.
  using OpDone = std::function<void(bool ok)>;

  virtual ~FileService() = default;

  /// Reads block `b` on behalf of `client`.
  virtual void read(net::NodeId client, BlockId b, OpDone done) = 0;

  /// Writes block `b` on behalf of `client`.
  virtual void write(net::NodeId client, BlockId b, OpDone done) = 0;
};

}  // namespace now::xfs
