#include "sim/random.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace now::sim {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Pcg32::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint32_t Pcg32::next_below(std::uint32_t bound) {
  assert(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint32_t threshold = (-bound) % bound;
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % bound;
  }
}

double Pcg32::next_double() {
  // 53 random bits -> [0, 1).
  const std::uint64_t hi = next_u32();
  const std::uint64_t lo = next_u32();
  const std::uint64_t bits = ((hi << 32) | lo) >> 11;
  return static_cast<double>(bits) * 0x1.0p-53;
}

double Pcg32::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

std::int64_t Pcg32::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32());
  }
  if (span <= 0xffffffffULL) {
    return lo + next_below(static_cast<std::uint32_t>(span));
  }
  // Wide span: use 53-bit double; fine for simulator parameter ranges.
  return lo + static_cast<std::int64_t>(next_double() *
                                        static_cast<double>(span));
}

double Pcg32::exponential(double mean) {
  assert(mean > 0);
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Pcg32::pareto(double alpha, double lo, double hi) {
  assert(alpha > 0 && lo > 0 && hi > lo);
  const double u = next_double();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  // Inverse CDF of the bounded Pareto distribution.
  const double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(1.0 / x, 1.0 / alpha);
}

double Pcg32::normal(double mean, double stddev) {
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

bool Pcg32::bernoulli(double p) { return next_double() < p; }

void Pcg32::shuffle(std::vector<std::uint32_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::uint32_t j = next_below(static_cast<std::uint32_t>(i));
    std::swap(v[i - 1], v[j]);
  }
}

ZipfSampler::ZipfSampler(std::uint32_t n, double s) {
  assert(n > 0);
  cdf_.resize(n);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  // guide_[k] counts the ranks whose weight is below k / n: count each
  // rank at the first slot past it, then sum.  No branch depends on the
  // weights, so the table costs no mispredicted walk to build.
  guide_.assign(n + 1, 0);
  for (const double c : cdf_) {
    ++guide_[std::min(static_cast<std::uint32_t>(c * n) + 1, n)];
  }
  guide_.pop_back();
  std::uint32_t below = 0;
  for (std::uint32_t& g : guide_) g = below += g;
}

std::uint32_t ZipfSampler::rank_of(double u) const {
  const std::uint32_t last = static_cast<std::uint32_t>(cdf_.size()) - 1;
  std::uint32_t k = static_cast<std::uint32_t>(u * cdf_.size());
  if (k > last) k = last;
  std::uint32_t rank = guide_[k];
  while (rank > 0 && cdf_[rank - 1] >= u) --rank;
  while (rank < last && cdf_[rank] < u) ++rank;
  return rank;
}

}  // namespace now::sim
