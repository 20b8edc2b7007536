// now::replay — streaming trace ingestion: bounded-memory line cursors and
// format adapters that turn recorded request streams into the simulator's
// native records.
//
// The paper's Table 3 and its NFS analysis argue from *recorded*
// workstation traffic (the two-day Berkeley trace, a live departmental NFS
// server); everything in this repo so far replays synthetic generators.
// This module is the ingestion half of the replay frontend:
//
//   * LineCursor        — chunked, pull-based line reader over any istream.
//                         One fixed window buffer, allocated once and never
//                         grown, so a multi-GB trace replays with O(window)
//                         memory; a line longer than the window is a hard
//                         parse error (with its line number), not a silent
//                         reallocation.  Peak memory == window_bytes(),
//                         asserted by tests.
//   * TraceCursor       — the pull interface every replay consumer takes:
//                         next() yields trace::FsAccess records until EOF.
//   * FsTraceCursor     — the repo's native fs format
//                         (`<time_us> <client> <block> <r|w>`).
//   * NfsTraceCursor    — SNIA nfsdump-style text
//                         (`<time_sec> <client> <op> <fh> <offset> <bytes>`),
//                         yielding raw NfsRecords; client and file-handle
//                         tokens are mapped first-seen to dense ids (that
//                         dictionary is O(distinct entities), the only
//                         state beyond the window).
//   * NfsFsCursor       — NfsTraceCursor + the documented op -> access
//                         table, yielding FsAccess for block-level
//                         consumers (coopcache, xFS, serving):
//
//       NFS op                                  access      block
//       read / commit                           read        fh*bpf + off/bs
//       write                                   write       fh*bpf + off/bs
//       getattr lookup access readdir           read        fh*bpf (inode)
//         readlink fsstat
//       setattr create remove rename mkdir      write       fh*bpf (inode)
//         rmdir link symlink
//
//     (bpf = 256 blocks per file handle, bs = Table 3's 8 KB blocks;
//     offsets past the per-file 2 MB span clamp to the last block.)
//
//   * ParallelJobCursor / UsageIntervalCursor — the other native line
//     formats (trace_io writes all three), read through the same
//     streaming core.
//
// Every cursor reads a line's whitespace-separated fields in one pass,
// parsing each number in place; a number must fill its field, and a
// missing or extra field rejects the line.  Times must be finite,
// non-negative and fit a SimTime in nanoseconds.  Every parse error cites
// the offending 1-based line number; timestamped formats reject
// out-of-order records (a recorded stream is a schedule — replaying one
// out of order would silently reorder the simulation).
// Cursors are pure functions of their input bytes: two cursors over the
// same stream yield identical records, which is what keeps trace-driven
// benches byte-identical across --jobs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/fs_trace.hpp"
#include "trace/parallel_trace.hpp"
#include "trace/usage_trace.hpp"

namespace now::replay {

/// Chunked line reader: one window-sized buffer, refilled in place.  Yields
/// content lines (blank lines and '#' comments skipped) as string_views
/// into the buffer, valid until the next call.  Memory is exactly the
/// window, allocated at construction and never grown; a line longer than
/// the window throws with its line number.
class LineCursor {
 public:
  static constexpr std::size_t kDefaultWindow = 64 * 1024;

  explicit LineCursor(std::istream& in,
                      std::size_t window_bytes = kDefaultWindow);

  /// Next content line, stripped of a trailing '\r'; nullopt at EOF.
  std::optional<std::string_view> next();

  /// 1-based line number of the last line next() returned.
  std::size_t line_number() const { return lineno_; }

  /// The fixed buffer size — the reader's entire memory footprint.
  std::size_t window_bytes() const { return buf_.size(); }

  /// Total raw bytes consumed from the stream so far.
  std::uint64_t bytes_read() const { return bytes_read_; }

 private:
  void fill();

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  // valid bytes are [begin_, end_)
  std::size_t end_ = 0;
  std::size_t lineno_ = 0;
  std::uint64_t bytes_read_ = 0;
  bool eof_ = false;
};

/// Options shared by the record cursors.
struct CursorOptions {
  std::size_t window_bytes = LineCursor::kDefaultWindow;
};

/// Pull interface for a stream of file-system accesses — what every replay
/// consumer (drivers, benches, ServeWorkload) programs against.
class TraceCursor {
 public:
  virtual ~TraceCursor() = default;
  /// Next record, in trace order; nullopt once the trace is exhausted.
  /// Throws std::runtime_error (citing the line) on malformed input.
  virtual std::optional<trace::FsAccess> next() = 0;
};

/// Native fs format: `<time_us> <client> <block> <r|w>`.
class FsTraceCursor : public TraceCursor {
 public:
  explicit FsTraceCursor(std::istream& in, CursorOptions opt = {});

  std::optional<trace::FsAccess> next() override;

  std::uint64_t records() const { return records_; }
  std::size_t window_bytes() const { return lines_.window_bytes(); }

 private:
  LineCursor lines_;
  sim::SimTime last_ = 0;
  std::uint64_t records_ = 0;
};

// --- NFS (SNIA nfsdump-style text) -------------------------------------

enum class NfsOp : std::uint8_t {
  kRead,
  kWrite,
  kCommit,
  kGetattr,
  kSetattr,
  kLookup,
  kAccess,
  kReaddir,
  kReadlink,
  kFsstat,
  kCreate,
  kRemove,
  kRename,
  kMkdir,
  kRmdir,
  kLink,
  kSymlink,
};

const char* to_string(NfsOp op);
/// True for ops that mutate server state (the write column of the table).
bool nfs_op_is_write(NfsOp op);
/// True for read/write/commit — ops that move file data, not metadata.
bool nfs_op_is_data(NfsOp op);

/// One parsed nfsdump-style record.  `client` and `fh` are dense ids
/// assigned in first-appearance order (deterministic for a given file).
struct NfsRecord {
  sim::SimTime at = 0;
  std::uint32_t client = 0;
  NfsOp op = NfsOp::kGetattr;
  std::uint64_t fh = 0;
  std::uint64_t offset = 0;
  std::uint32_t bytes = 0;
};

/// Parses `<time_sec> <client> <op> <fh> <offset> <bytes>` lines, e.g.
/// `12.048310 ws04 read fh01a2 40960 8192`.  Client/fh may be any
/// whitespace-free token (hostname, IP, hex handle).
class NfsTraceCursor {
 public:
  explicit NfsTraceCursor(std::istream& in, CursorOptions opt = {});

  std::optional<NfsRecord> next();

  std::uint64_t records() const { return records_; }
  std::uint32_t distinct_clients() const {
    return static_cast<std::uint32_t>(clients_.size());
  }
  std::uint64_t distinct_fhs() const { return fhs_.size(); }
  std::size_t window_bytes() const { return lines_.window_bytes(); }

 private:
  LineCursor lines_;
  sim::SimTime last_ = 0;
  std::uint64_t records_ = 0;
  std::unordered_map<std::string, std::uint32_t> clients_;
  std::unordered_map<std::string, std::uint64_t> fhs_;
};

/// The block of the simulator's flat block space that `r` touches, by the
/// op table in the header comment.
std::uint64_t nfs_block(const NfsRecord& r);

/// NfsTraceCursor adapted to the TraceCursor interface via the op table in
/// the header comment.
class NfsFsCursor : public TraceCursor {
 public:
  explicit NfsFsCursor(std::istream& in, CursorOptions opt = {});

  std::optional<trace::FsAccess> next() override;

  const NfsTraceCursor& nfs() const { return nfs_; }

 private:
  NfsTraceCursor nfs_;
};

// --- Other native formats (written by trace_io) ---------------------------

/// Parallel-job format: `<arrival_us> <width> <work_us> <p|d>`.
class ParallelJobCursor {
 public:
  explicit ParallelJobCursor(std::istream& in, CursorOptions opt = {});
  std::optional<trace::ParallelJob> next();

 private:
  LineCursor lines_;
  sim::SimTime last_ = 0;
};

/// Busy-interval format: `<node> <begin_us> <end_us>`.
class UsageIntervalCursor {
 public:
  struct Row {
    std::uint32_t node = 0;
    trace::BusyInterval interval;
  };
  explicit UsageIntervalCursor(std::istream& in, CursorOptions opt = {});
  std::optional<Row> next();

 private:
  LineCursor lines_;
};

// --- File-level helpers --------------------------------------------------

enum class TraceFormat : std::uint8_t { kFs, kNfs };

const char* to_string(TraceFormat f);

/// Sniffs the format from the first content line: 4 fields ending in r|w
/// is the native fs format, 6 fields is nfsdump-style.  Throws when the
/// file is missing, empty, or neither shape.
TraceFormat detect_format(const std::string& path);

/// Opens `path`, detects its format, and returns a cursor that owns the
/// file handle — O(window) memory however large the file.  NFS traces are
/// adapted through NfsFsCursor.
std::unique_ptr<TraceCursor> open_trace(const std::string& path,
                                        CursorOptions opt = {});

/// Filters an owned cursor to records with client % modulo == residue and
/// rewrites their client to `residue` — one replay client's private view
/// of a shared trace.  Each instance owns an independent file handle, so
/// replay clients never share reader state.
class ClientStrideCursor : public TraceCursor {
 public:
  ClientStrideCursor(std::unique_ptr<TraceCursor> inner, std::uint32_t modulo,
                     std::uint32_t residue);
  std::optional<trace::FsAccess> next() override;

 private:
  std::unique_ptr<TraceCursor> inner_;
  std::uint32_t modulo_;
  std::uint32_t residue_;
};

/// One cheap streaming pass over a trace file: record count, client-id
/// bound, and the recorded time span — what benches need before replaying
/// (warm-up index, cluster sizing, horizon).
struct TraceSummary {
  TraceFormat format = TraceFormat::kFs;
  std::uint64_t records = 0;
  /// Max client id + 1 (dense for NFS traces by construction).
  std::uint32_t clients = 0;
  sim::SimTime first_at = 0;
  sim::SimTime last_at = 0;
};

TraceSummary summarize(const std::string& path, CursorOptions opt = {});

}  // namespace now::replay
