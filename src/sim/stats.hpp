// Statistics collection used across all experiments.
//
// Summary accumulates scalar samples (min/max/mean/variance); Histogram adds
// percentile queries over log-spaced bins, which is what the benches use to
// report p50/p95/p99 response times alongside the paper's means.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace now::sim {

/// Streaming scalar summary: count, sum, min, max, mean, stddev.
class Summary {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  /// Sample variance (Welford).  Zero with fewer than two samples.
  double variance() const;
  double stddev() const;

  /// Merges another summary into this one (variance merged exactly).
  void merge(const Summary& other);

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Log-spaced histogram over (0, +inf) with exact percentile bounds.
///
/// Bin i covers [lo * growth^i, lo * growth^(i+1)); values below `lo` land in
/// an underflow bin.  With growth = 1.05 the relative quantile error is < 5 %.
class Histogram {
 public:
  /// `lo` is the smallest resolvable value; `growth` the bin width ratio.
  explicit Histogram(double lo = 1.0, double growth = 1.05);

  void add(double x);
  std::uint64_t count() const { return total_; }
  double mean() const { return summary_.mean(); }
  double max() const { return summary_.max(); }
  double min() const { return summary_.min(); }

  /// Value at quantile q in [0, 1] (upper bound of the bin containing it).
  double percentile(double q) const;

  /// Merges another histogram into this one.  Both must share `lo` and
  /// `growth` (every sample keeps its exact bin, so merged percentiles are
  /// identical to single-histogram recording, whatever the grouping).
  void merge(const Histogram& other);

  const Summary& summary() const { return summary_; }

 private:
  double lo_;
  double log_growth_;
  std::uint64_t underflow_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> bins_;
  Summary summary_;

  std::size_t bin_index(double x) const;
  double bin_upper(std::size_t i) const;
};

}  // namespace now::sim
