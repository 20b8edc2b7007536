#include "serve/request_mix.hpp"

#include <cassert>

#include "exp/seed.hpp"

namespace now::serve {

namespace {
constexpr std::uint64_t kMixStream = 11;  // disjoint from arrivals.cpp's 9/10
}  // namespace

const char* to_string(RequestOp op) {
  switch (op) {
    case RequestOp::kFileRead: return "file_read";
    case RequestOp::kFileWrite: return "file_write";
    case RequestOp::kCacheRead: return "cache_read";
    case RequestOp::kCompute: return "compute";
  }
  return "?";
}

RequestMix::RequestMix(std::vector<RequestClass> classes, std::uint64_t seed)
    : classes_(std::move(classes)), seed_(seed) {
  assert(!classes_.empty());
  double total = 0.0;
  cum_weight_.reserve(classes_.size());
  zipf_of_.reserve(classes_.size());
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const RequestClass& rc = classes_[i];
    assert(rc.weight >= 0.0);
    total += rc.weight;
    cum_weight_.push_back(total);
    std::size_t same = 0;
    while (same < i && (classes_[same].working_set != rc.working_set ||
                        classes_[same].zipf_s != rc.zipf_s)) {
      ++same;
    }
    if (same < i) {
      zipf_of_.push_back(zipf_of_[same]);
    } else {
      zipf_of_.push_back(zipf_.size());
      zipf_.emplace_back(rc.working_set > 0 ? rc.working_set : 1, rc.zipf_s);
    }
  }
  assert(total > 0.0 && "RequestMix needs at least one positive weight");
}

void RequestMix::ensure_clients(std::uint32_t n) {
  rng_.reserve(n);
  while (rng_.size() < n) {
    const auto client = static_cast<std::uint32_t>(rng_.size());
    rng_.emplace_back(exp::derive_seed(seed_, (kMixStream << 32) | client),
                      client);
  }
}

sim::Pcg32& RequestMix::rng(std::uint32_t client) {
  // Grows the table on demand.  The stream depends only on (seed,
  // client), so creation order is irrelevant to the draws.
  if (client >= rng_.size()) ensure_clients(client + 1);
  return rng_[client];
}

std::size_t RequestMix::pick_class(std::uint32_t client) {
  const double u = rng(client).next_double() * cum_weight_.back();
  for (std::size_t i = 0; i < cum_weight_.size(); ++i) {
    if (u < cum_weight_[i]) return i;
  }
  return cum_weight_.size() - 1;
}

std::uint64_t RequestMix::pick_block(std::size_t cls, std::uint32_t client) {
  return zipf_[zipf_of_.at(cls)].sample(rng(client));
}

}  // namespace now::serve
