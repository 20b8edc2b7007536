// Deterministic random number generation for the simulator.
//
// PCG32 (O'Neill 2014) gives high-quality 32-bit output from 64-bit state
// with a selectable stream, so each simulated component can own an
// independent, reproducible stream derived from the run seed.
#pragma once

#include <cstdint>
#include <vector>

namespace now::sim {

/// PCG-XSH-RR 64/32 generator.  Cheap, statistically strong, reproducible.
class Pcg32 {
 public:
  /// Seeds the generator.  Distinct `stream` values give independent
  /// sequences even with the same `seed`.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Next uniformly distributed 32-bit value.
  std::uint32_t next_u32();

  /// Uniform integer in [0, bound) without modulo bias.  bound must be > 0.
  std::uint32_t next_below(std::uint32_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Bounded Pareto sample: heavy-tailed, shape `alpha`, support [lo, hi].
  /// Used for idle-period lengths and file sizes.
  double pareto(double alpha, double lo, double hi);

  /// Standard normal via Box-Muller (one value per call; no caching so that
  /// the stream position is predictable).
  double normal(double mean, double stddev);

  /// True with probability p.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of an index vector, in place.
  void shuffle(std::vector<std::uint32_t>& v);

  // std::uniform_random_bit_generator interface so the generator can drive
  // <random> adaptors if ever needed.
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }
  result_type operator()() { return next_u32(); }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Zipf(1..n, s) sampler using precomputed cumulative weights.
/// Models file-popularity skew in the synthetic traces: a handful of shared
/// executables and font files absorb most read traffic, as in the Berkeley
/// trace behind Table 3.
///
/// A guide table (one rank per 1/n of probability) starts each lookup next
/// to its answer, so a draw costs a few compares instead of a binary search
/// over the whole CDF; the rank is the same either way.
class ZipfSampler {
 public:
  /// `n` ranks, exponent `s` (s = 0 is uniform; larger s is more skewed).
  ZipfSampler(std::uint32_t n, double s);

  /// Draws a rank in [0, n).
  std::uint32_t sample(Pcg32& rng) const { return rank_of(rng.next_double()); }

  /// The first rank whose cumulative weight is at least `u` (the last rank
  /// if none is), for u in [0, 1).
  std::uint32_t rank_of(double u) const;

  /// Cumulative weight of ranks 0..`rank`.
  double cdf(std::uint32_t rank) const { return cdf_[rank]; }

  std::uint32_t size() const { return static_cast<std::uint32_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
  // guide_[k] is rank_of(k / n) up to rounding; u * n can also round up
  // across k + 1, so a lookup walks down as well as up from it.
  std::vector<std::uint32_t> guide_;
};

}  // namespace now::sim
