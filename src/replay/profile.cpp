#include "replay/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace now::replay {
namespace {

// 64-bucket log2 histogram over nanosecond gaps: bucket i holds gaps in
// [2^i, 2^(i+1)) ns (bucket 0 also takes zero gaps).  Exact counts,
// bucket-resolution values.
struct GapHistogram {
  std::array<std::uint64_t, 64> buckets{};
  std::uint64_t n = 0;
  long double sum_ns = 0;

  void add(sim::Duration gap_ns) {
    if (gap_ns < 0) gap_ns = 0;
    unsigned b = 0;
    for (auto g = static_cast<std::uint64_t>(gap_ns); g > 1; g >>= 1) ++b;
    buckets[std::min<unsigned>(b, 63)]++;
    ++n;
    sum_ns += static_cast<long double>(gap_ns);
  }

  /// Lower edge of the bucket containing quantile q, in microseconds.
  double quantile_us(double q) const {
    if (n == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen > target) {
        return sim::to_us(static_cast<sim::Duration>(
            i == 0 ? 0 : (std::uint64_t{1} << i)));
      }
    }
    return 0;
  }

  double mean_us() const {
    if (n == 0) return 0;
    return static_cast<double>(sum_ns / static_cast<long double>(n)) /
           static_cast<double>(sim::kMicrosecond);
  }
};

struct PopularityFit {
  double zipf_s = 0;
  double top1_share = 0;
  double top10_share = 0;
};

// Least-squares slope of ln(freq) on ln(rank) over the hottest blocks;
// Zipf with exponent s gives slope -s.
PopularityFit fit_popularity(
    const std::unordered_map<std::uint64_t, std::uint64_t>& counts,
    std::uint64_t total) {
  PopularityFit fit;
  if (counts.empty() || total == 0) return fit;
  std::vector<std::uint64_t> freq;
  freq.reserve(counts.size());
  for (const auto& [block, c] : counts) freq.push_back(c);
  std::sort(freq.begin(), freq.end(), std::greater<>());

  fit.top1_share = static_cast<double>(freq[0]) / static_cast<double>(total);
  std::uint64_t top10 = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(10, freq.size()); ++i) {
    top10 += freq[i];
  }
  fit.top10_share = static_cast<double>(top10) / static_cast<double>(total);

  const std::size_t n = std::min<std::size_t>(1000, freq.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = std::log(static_cast<double>(i + 1));
    const double y = std::log(static_cast<double>(freq[i]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (denom > 0) fit.zipf_s = -(dn * sxy - sx * sy) / denom;
  return fit;
}

}  // namespace

TraceProfile profile_trace(const std::string& path, CursorOptions opt) {
  TraceProfile p;
  p.format = detect_format(path);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);

  GapHistogram gaps;
  std::unordered_map<std::uint64_t, std::uint64_t> block_counts;
  sim::SimTime prev = 0;
  std::uint32_t max_client = 0;
  bool any = false;

  auto account = [&](const trace::FsAccess& a) {
    if (!any) {
      p.first_at = a.at;
    } else {
      gaps.add(a.at - prev);
    }
    any = true;
    prev = a.at;
    p.last_at = a.at;
    ++p.records;
    (a.is_write ? p.writes : p.reads)++;
    max_client = std::max(max_client, a.client);
    ++block_counts[a.block];
  };

  if (p.format == TraceFormat::kFs) {
    FsTraceCursor cur(in, opt);
    while (auto a = cur.next()) account(*a);
    p.data_ops = p.records;
    p.clients = any ? max_client + 1 : 0;
  } else {
    // Profile raw NFS records (op mix, sizes) and run the same op->access
    // mapping replay uses for the popularity/read-write split.
    NfsTraceCursor cur(in, opt);
    long double data_bytes = 0;
    while (auto r = cur.next()) {
      p.op_counts[static_cast<std::size_t>(r->op)]++;
      trace::FsAccess a;
      a.at = r->at;
      a.client = r->client;
      a.is_write = nfs_op_is_write(r->op);
      a.block = nfs_block(*r);
      if (nfs_op_is_data(r->op)) {
        ++p.data_ops;
        data_bytes += static_cast<long double>(r->bytes);
      } else {
        ++p.meta_ops;
      }
      account(a);
    }
    p.clients = cur.distinct_clients();
    if (p.data_ops > 0) {
      p.mean_data_bytes =
          static_cast<double>(data_bytes / static_cast<long double>(p.data_ops));
    }
  }

  p.distinct_blocks = block_counts.size();
  p.mean_gap_us = gaps.mean_us();
  p.gap_p50_us = gaps.quantile_us(0.50);
  p.gap_p90_us = gaps.quantile_us(0.90);
  p.gap_p99_us = gaps.quantile_us(0.99);

  const auto fit = fit_popularity(block_counts, p.records);
  p.zipf_s = fit.zipf_s;
  p.top1_share = fit.top1_share;
  p.top10_share = fit.top10_share;
  return p;
}

std::string format_profile(const TraceProfile& p) {
  char line[128];
  std::string out;
  auto emit = [&](const char* key, const char* fmt, auto value) {
    int n = std::snprintf(line, sizeof(line), "%-18s ", key);
    out.append(line, static_cast<std::size_t>(n));
    n = std::snprintf(line, sizeof(line), fmt, value);
    out.append(line, static_cast<std::size_t>(n));
    out.push_back('\n');
  };
  emit("format", "%s", to_string(p.format));
  emit("records", "%llu", static_cast<unsigned long long>(p.records));
  emit("clients", "%u", p.clients);
  emit("distinct_blocks", "%llu",
       static_cast<unsigned long long>(p.distinct_blocks));
  emit("read_fraction", "%.4f",
       p.records ? static_cast<double>(p.reads) / static_cast<double>(p.records)
                 : 0.0);
  emit("write_fraction", "%.4f",
       p.records
           ? static_cast<double>(p.writes) / static_cast<double>(p.records)
           : 0.0);
  emit("data_op_fraction", "%.4f",
       p.records
           ? static_cast<double>(p.data_ops) / static_cast<double>(p.records)
           : 0.0);
  emit("span_sec", "%.3f", sim::to_sec(p.last_at - p.first_at));
  emit("mean_gap_us", "%.1f", p.mean_gap_us);
  emit("gap_p50_us", "%.1f", p.gap_p50_us);
  emit("gap_p90_us", "%.1f", p.gap_p90_us);
  emit("gap_p99_us", "%.1f", p.gap_p99_us);
  emit("zipf_s", "%.3f", p.zipf_s);
  emit("top1_share", "%.4f", p.top1_share);
  emit("top10_share", "%.4f", p.top10_share);
  if (p.format == TraceFormat::kNfs) {
    emit("mean_data_bytes", "%.0f", p.mean_data_bytes);
    for (std::size_t i = 0; i < kNfsOpCount; ++i) {
      if (p.op_counts[i] == 0) continue;
      std::string key = std::string("op_") + to_string(static_cast<NfsOp>(i));
      emit(key.c_str(), "%.4f",
           static_cast<double>(p.op_counts[i]) /
               static_cast<double>(p.records));
    }
  }
  return out;
}

}  // namespace now::replay
