// now::serve — mapping arrivals onto the real subsystems.
//
// A serving request is not an abstract token: each arrival becomes an
// actual operation against the stack this repo already has — an xFS read
// or write (or the central-server incumbent, for comparison), a
// cooperative-cache-mediated read charged at the study's per-level costs,
// or a GLUnix compute-job submission that really queues for an idle
// machine.  RequestMix owns the *choice*: weighted request classes, each
// with its own working set (Zipf-skewed block popularity), SLO threshold,
// and — for compute — CPU demand.  All draws come from per-client
// seed-derived streams, so the request sequence is as reproducible as the
// arrival schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace now::serve {

enum class RequestOp : std::uint8_t {
  kFileRead,   // xFS / CentralServerFs read
  kFileWrite,  // xFS / CentralServerFs write
  kCacheRead,  // cooperative-cache read (CoopCacheSim, per-level costs)
  kCompute,    // GLUnix remote batch job
};

const char* to_string(RequestOp op);

struct RequestClass {
  std::string name = "read";
  RequestOp op = RequestOp::kFileRead;
  /// Relative share of arrivals (normalized across the mix).
  double weight = 1.0;
  /// End-to-end latency threshold this class is judged against.
  sim::Duration slo = 50 * sim::kMillisecond;
  /// Distinct blocks file/cache requests of this class touch.
  std::uint32_t working_set = 2'000;
  /// Zipf exponent for block popularity (0 = uniform).
  double zipf_s = 0.8;
  /// kCompute: CPU demand and checkpointable state per job.
  sim::Duration compute_work = 50 * sim::kMillisecond;
  std::uint64_t compute_memory_bytes = 8ull << 20;
};

class RequestMix {
 public:
  /// At least one class with positive weight is required.
  RequestMix(std::vector<RequestClass> classes, std::uint64_t seed);

  std::size_t size() const { return classes_.size(); }
  const RequestClass& at(std::size_t i) const { return classes_.at(i); }

  /// Pre-creates the per-client streams for clients [0, n).  Each stream
  /// depends only on (seed, client) — eager creation draws nothing — so
  /// this changes no sequence; it only sizes the table in one step.
  /// Callers can skip it: rng() grows the table on demand.
  void ensure_clients(std::uint32_t n);

  /// Draws the class index of `client`'s next request (weighted).
  std::size_t pick_class(std::uint32_t client);

  /// Draws the block a file/cache request of class `cls` touches
  /// (Zipf-skewed over the class working set, from the same per-client
  /// stream as pick_class so the whole request is one deterministic
  /// sequence per client).
  std::uint64_t pick_block(std::size_t cls, std::uint32_t client);

 private:
  sim::Pcg32& rng(std::uint32_t client);

  std::vector<RequestClass> classes_;
  std::vector<double> cum_weight_;  // inclusive prefix sums
  // One sampler per distinct (working set, exponent); zipf_of_[cls] is the
  // class's sampler, so classes with the same popularity share its tables.
  std::vector<sim::ZipfSampler> zipf_;
  std::vector<std::size_t> zipf_of_;
  std::vector<sim::Pcg32> rng_;  // per client, indexed by client id
  std::uint64_t seed_;
};

}  // namespace now::serve
