#include "replay/cursor.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>

namespace now::replay {

namespace {

[[noreturn]] void bad_line(const std::string& what, std::size_t lineno) {
  throw std::runtime_error("trace parse error (" + what + ") at line " +
                           std::to_string(lineno));
}

/// A time in `unit`s as a SimTime: finite, non-negative and within range,
/// else false.  Converts exactly as sim::from_us and sim::from_sec do.
bool to_time(double value, sim::Duration unit, sim::SimTime* out) {
  const double ns = value * static_cast<double>(unit);
  if (!(ns >= 0.0 && ns < 0x1p63)) return false;  // also rejects NaN
  *out = static_cast<sim::SimTime>(ns);
  return true;
}

/// Reads one line's fields left to right.  Fields are separated by runs of
/// spaces and tabs; a number is parsed in place with from_chars and must
/// fill its whole field.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next field's text; empty once the line is used up.
  std::string_view text() {
    skip_blanks();
    const char* start = p_;
    while (p_ != end_ && !blank(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  /// The next field as a decimal integer or a double.
  template <typename T>
  bool number(T* out) {
    skip_blanks();
    const auto r = std::from_chars(p_, end_, *out);
    if (r.ec != std::errc{} || (r.ptr != end_ && !blank(*r.ptr))) {
      return false;
    }
    p_ = r.ptr;
    return true;
  }

  /// The next field as a time in `unit`s (see to_time).
  bool time(sim::Duration unit, sim::SimTime* out) {
    double value = 0;
    return number(&value) && to_time(value, unit, out);
  }

  /// True when no field is left.
  bool done() {
    skip_blanks();
    return p_ == end_;
  }

 private:
  static bool blank(char c) { return c == ' ' || c == '\t'; }
  void skip_blanks() {
    while (p_ != end_ && blank(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

// --- LineCursor ----------------------------------------------------------

LineCursor::LineCursor(std::istream& in, std::size_t window_bytes)
    : in_(in), buf_(window_bytes > 0 ? window_bytes : 1) {}

void LineCursor::fill() {
  if (begin_ > 0) {
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buf_.size()) {
    throw std::runtime_error(
        "trace parse error (line exceeds the " + std::to_string(buf_.size()) +
        "-byte window) at line " + std::to_string(lineno_ + 1));
  }
  in_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
  const std::size_t got = static_cast<std::size_t>(in_.gcount());
  end_ += got;
  bytes_read_ += got;
  if (got == 0) eof_ = true;
}

std::optional<std::string_view> LineCursor::next() {
  for (;;) {
    const char* base = buf_.data();
    const void* nl =
        std::memchr(base + begin_, '\n', end_ - begin_);
    if (nl == nullptr && !eof_) {
      fill();
      continue;
    }
    std::size_t line_end;
    bool had_newline;
    if (nl != nullptr) {
      line_end = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
      had_newline = true;
    } else {
      if (begin_ == end_) return std::nullopt;  // fully drained
      line_end = end_;  // final line without a trailing newline
      had_newline = false;
    }
    ++lineno_;
    std::string_view line(base + begin_, line_end - begin_);
    begin_ = had_newline ? line_end + 1 : line_end;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string_view::npos) continue;  // blank
    if (line[first] == '#') continue;               // comment
    return line;
  }
}

// --- FsTraceCursor -------------------------------------------------------

FsTraceCursor::FsTraceCursor(std::istream& in, CursorOptions opt)
    : lines_(in, opt.window_bytes) {}

std::optional<trace::FsAccess> FsTraceCursor::next() {
  const auto line = lines_.next();
  if (!line) return std::nullopt;
  Fields f(*line);
  trace::FsAccess a;
  std::string_view op;
  if (!f.time(sim::kMicrosecond, &a.at) || !f.number(&a.client) ||
      !f.number(&a.block) || (op = f.text()).size() != 1 ||
      (op[0] != 'r' && op[0] != 'w') || !f.done()) {
    bad_line("fs access", lines_.line_number());
  }
  a.is_write = op[0] == 'w';
  if (records_ > 0 && a.at < last_) {
    bad_line("out-of-order timestamp", lines_.line_number());
  }
  last_ = a.at;
  ++records_;
  return a;
}

// --- NFS -----------------------------------------------------------------

namespace {
struct NfsOpName {
  const char* name;
  NfsOp op;
};
constexpr NfsOpName kNfsOps[] = {
    {"read", NfsOp::kRead},         {"write", NfsOp::kWrite},
    {"commit", NfsOp::kCommit},     {"getattr", NfsOp::kGetattr},
    {"setattr", NfsOp::kSetattr},   {"lookup", NfsOp::kLookup},
    {"access", NfsOp::kAccess},     {"readdir", NfsOp::kReaddir},
    {"readlink", NfsOp::kReadlink}, {"fsstat", NfsOp::kFsstat},
    {"create", NfsOp::kCreate},     {"remove", NfsOp::kRemove},
    {"rename", NfsOp::kRename},     {"mkdir", NfsOp::kMkdir},
    {"rmdir", NfsOp::kRmdir},       {"link", NfsOp::kLink},
    {"symlink", NfsOp::kSymlink},
};
}  // namespace

const char* to_string(NfsOp op) {
  for (const auto& e : kNfsOps) {
    if (e.op == op) return e.name;
  }
  return "?";
}

bool nfs_op_is_write(NfsOp op) {
  switch (op) {
    case NfsOp::kWrite:
    case NfsOp::kCommit:
    case NfsOp::kSetattr:
    case NfsOp::kCreate:
    case NfsOp::kRemove:
    case NfsOp::kRename:
    case NfsOp::kMkdir:
    case NfsOp::kRmdir:
    case NfsOp::kLink:
    case NfsOp::kSymlink:
      return true;
    default:
      return false;
  }
}

bool nfs_op_is_data(NfsOp op) {
  return op == NfsOp::kRead || op == NfsOp::kWrite || op == NfsOp::kCommit;
}

NfsTraceCursor::NfsTraceCursor(std::istream& in, CursorOptions opt)
    : lines_(in, opt.window_bytes) {}

std::optional<NfsRecord> NfsTraceCursor::next() {
  const auto line = lines_.next();
  if (!line) return std::nullopt;
  Fields f(*line);
  NfsRecord r;
  std::uint64_t bytes = 0;
  const bool timed = f.time(sim::kSecond, &r.at);
  const std::string_view client = f.text();
  const std::string_view op = f.text();
  const std::string_view fh = f.text();
  if (!timed || fh.empty() || !f.number(&r.offset) || !f.number(&bytes) ||
      !f.done()) {
    bad_line("nfs record", lines_.line_number());
  }
  r.bytes = bytes > 0xffffffffull ? 0xffffffffu
                                  : static_cast<std::uint32_t>(bytes);
  bool known = false;
  for (const auto& e : kNfsOps) {
    if (op == e.name) {
      r.op = e.op;
      known = true;
      break;
    }
  }
  if (!known) {
    bad_line("unknown NFS op '" + std::string(op) + "'",
             lines_.line_number());
  }
  // Dense ids in first-appearance order: deterministic for a given file.
  r.client = clients_
                 .emplace(std::string(client),
                          static_cast<std::uint32_t>(clients_.size()))
                 .first->second;
  r.fh = fhs_.emplace(std::string(fh), fhs_.size()).first->second;
  if (records_ > 0 && r.at < last_) {
    bad_line("out-of-order timestamp", lines_.line_number());
  }
  last_ = r.at;
  ++records_;
  return r;
}

std::uint64_t nfs_block(const NfsRecord& r) {
  // Table 3's 8 KB blocks, 256 of them (a 2 MB span) per file handle.
  constexpr std::uint64_t kBlockBytes = 8192;
  constexpr std::uint64_t kBlocksPerFile = 256;
  std::uint64_t block_in_file = 0;  // metadata ops hit the "inode" block
  if (nfs_op_is_data(r.op)) {
    block_in_file = std::min(r.offset / kBlockBytes, kBlocksPerFile - 1);
  }
  return r.fh * kBlocksPerFile + block_in_file;
}

NfsFsCursor::NfsFsCursor(std::istream& in, CursorOptions opt)
    : nfs_(in, opt) {}

std::optional<trace::FsAccess> NfsFsCursor::next() {
  const auto r = nfs_.next();
  if (!r) return std::nullopt;
  trace::FsAccess a;
  a.at = r->at;
  a.client = r->client;
  a.is_write = nfs_op_is_write(r->op);
  a.block = nfs_block(*r);
  return a;
}

// --- ParallelJobCursor / UsageIntervalCursor -----------------------------

ParallelJobCursor::ParallelJobCursor(std::istream& in, CursorOptions opt)
    : lines_(in, opt.window_bytes) {}

std::optional<trace::ParallelJob> ParallelJobCursor::next() {
  const auto line = lines_.next();
  if (!line) return std::nullopt;
  Fields f(*line);
  trace::ParallelJob j;
  std::string_view kind;
  if (!f.time(sim::kMicrosecond, &j.arrival) || !f.number(&j.width) ||
      !f.time(sim::kMicrosecond, &j.work) ||
      (kind = f.text()).size() != 1 || (kind[0] != 'p' && kind[0] != 'd') ||
      !f.done() || j.width == 0) {
    bad_line("parallel job", lines_.line_number());
  }
  j.development = kind[0] == 'd';
  if (j.arrival < last_) {
    bad_line("out-of-order timestamp", lines_.line_number());
  }
  last_ = j.arrival;
  return j;
}

UsageIntervalCursor::UsageIntervalCursor(std::istream& in, CursorOptions opt)
    : lines_(in, opt.window_bytes) {}

std::optional<UsageIntervalCursor::Row> UsageIntervalCursor::next() {
  const auto line = lines_.next();
  if (!line) return std::nullopt;
  Fields f(*line);
  Row row;
  double begin_us = 0, end_us = 0;
  if (!f.number(&row.node) || !f.number(&begin_us) || !f.number(&end_us) ||
      !f.done() || end_us < begin_us ||
      !to_time(begin_us, sim::kMicrosecond, &row.interval.begin) ||
      !to_time(end_us, sim::kMicrosecond, &row.interval.end)) {
    bad_line("busy interval", lines_.line_number());
  }
  return row;
}

// --- File-level helpers --------------------------------------------------

const char* to_string(TraceFormat f) {
  return f == TraceFormat::kFs ? "fs" : "nfs";
}

TraceFormat detect_format(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  LineCursor lines(in, 4096);
  const auto line = lines.next();
  if (!line) {
    throw std::runtime_error("trace file has no records: " + path);
  }
  Fields f(*line);
  std::size_t n = 0;
  std::string_view last;
  for (std::string_view t; !(t = f.text()).empty(); ++n) last = t;
  if (n == 4 && last.size() == 1 && (last[0] == 'r' || last[0] == 'w')) {
    return TraceFormat::kFs;
  }
  if (n == 6) return TraceFormat::kNfs;
  throw std::runtime_error(
      "unrecognized trace format (want 4-field fs or 6-field nfs lines): " +
      path);
}

namespace {
/// TraceCursor that owns its ifstream alongside the format parser.
class FileCursor : public TraceCursor {
 public:
  FileCursor(const std::string& path, TraceFormat format, CursorOptions opt)
      : in_(path) {
    if (!in_) {
      throw std::runtime_error("cannot open trace file: " + path);
    }
    if (format == TraceFormat::kFs) {
      fs_ = std::make_unique<FsTraceCursor>(in_, opt);
    } else {
      nfs_ = std::make_unique<NfsFsCursor>(in_, opt);
    }
  }

  std::optional<trace::FsAccess> next() override {
    return fs_ != nullptr ? fs_->next() : nfs_->next();
  }

 private:
  std::ifstream in_;
  std::unique_ptr<FsTraceCursor> fs_;
  std::unique_ptr<NfsFsCursor> nfs_;
};
}  // namespace

std::unique_ptr<TraceCursor> open_trace(const std::string& path,
                                        CursorOptions opt) {
  return std::make_unique<FileCursor>(path, detect_format(path), opt);
}

ClientStrideCursor::ClientStrideCursor(std::unique_ptr<TraceCursor> inner,
                                       std::uint32_t modulo,
                                       std::uint32_t residue)
    : inner_(std::move(inner)), modulo_(modulo > 0 ? modulo : 1),
      residue_(residue) {}

std::optional<trace::FsAccess> ClientStrideCursor::next() {
  while (auto a = inner_->next()) {
    if (a->client % modulo_ == residue_) {
      a->client = residue_;
      return a;
    }
  }
  return std::nullopt;
}

TraceSummary summarize(const std::string& path, CursorOptions opt) {
  TraceSummary s;
  s.format = detect_format(path);
  auto cur = open_trace(path, opt);
  while (const auto a = cur->next()) {
    if (s.records == 0) s.first_at = a->at;
    s.last_at = a->at;
    if (a->client + 1 > s.clients) s.clients = a->client + 1;
    ++s.records;
  }
  return s;
}

}  // namespace now::replay
