#include "serve/arrivals.hpp"

#include <algorithm>
#include <cmath>

#include "exp/seed.hpp"

namespace now::serve {

namespace {
// Derive-seed stream ids for the per-client RNGs, disjoint from the small
// task indices exp::run_sweep burns and from now::fault's streams 1-3.
constexpr std::uint64_t kArrivalStream = 9;
constexpr std::uint64_t kThinkStream = 10;
constexpr std::uint64_t kSessionStream = 12;  // 11 is kMixStream
constexpr double kTwoPi = 6.283185307179586476925286766559;
}  // namespace

const char* to_string(ThinkDist d) {
  switch (d) {
    case ThinkDist::kExponential: return "exponential";
    case ThinkDist::kPareto: return "pareto";
    case ThinkDist::kLognormal: return "lognormal";
  }
  return "?";
}

double DiurnalCurve::multiplier(sim::SimTime t) const {
  if (amplitude == 0.0) return 1.0;
  const double cycle =
      static_cast<double>(t) / static_cast<double>(period);
  const double m = 1.0 + amplitude * std::sin(kTwoPi * cycle);
  return m > 0.0 ? m : 0.0;
}

double DiurnalCurve::peak() const { return 1.0 + std::fabs(amplitude); }

// --- SessionTimeline -----------------------------------------------------

SessionTimeline::SessionTimeline(const PopulationParams& params,
                                 std::uint64_t seed, std::uint32_t client)
    : rng_(exp::derive_seed(seed, (kSessionStream << 32) | client), client),
      diurnal_(params.diurnal),
      mean_on_sec_(sim::to_sec(params.sessions.mean_on)),
      mean_off_sec_(sim::to_sec(params.sessions.mean_off)),
      horizon_sec_(sim::to_sec(params.horizon)),
      horizon_(params.horizon),
      enabled_(params.sessions.enabled()) {
  if (horizon_ <= 0) done_ = true;
}

std::optional<Session> SessionTimeline::next() {
  if (done_) return std::nullopt;
  if (!enabled_) {
    // One session spanning the whole horizon; no RNG draws, so enabling
    // churn later never perturbs the arrival/think streams of runs that
    // keep it off.
    done_ = true;
    return Session{0, horizon_};
  }
  const double peak = diurnal_.peak();
  if (first_) {
    first_ = false;
    // Warm start: the population is already in steady state at t = 0, so
    // each client is logged in with the renewal-process odds, and (the
    // exponential being memoryless) a client caught mid-session has a
    // full Exp(mean_on) spell still ahead of it.
    const double p_on = mean_on_sec_ / (mean_on_sec_ + mean_off_sec_);
    if (rng_.bernoulli(p_on)) {
      t_sec_ = rng_.exponential(mean_on_sec_);
      Session s;
      s.login = 0;
      s.logout = std::min(std::max<sim::SimTime>(sim::from_sec(t_sec_), 1),
                          horizon_);
      return s;
    }
  }
  // Next login by thinning: the login hazard is multiplier(t) / mean_off,
  // so the logged-out population re-enters fastest at the diurnal peak.
  while (true) {
    t_sec_ += rng_.exponential(mean_off_sec_ / peak);
    if (t_sec_ >= horizon_sec_) break;
    const sim::SimTime login = sim::from_sec(t_sec_);
    if (login >= horizon_) break;  // integral-ns rounding guard
    const double accept = rng_.next_double() * peak;
    if (accept > diurnal_.multiplier(login)) continue;
    t_sec_ += rng_.exponential(mean_on_sec_);
    Session s;
    s.login = login;
    s.logout = std::min(std::max<sim::SimTime>(sim::from_sec(t_sec_),
                                               login + 1),
                        horizon_);
    return s;
  }
  done_ = true;
  return std::nullopt;
}

// --- ArrivalStream -------------------------------------------------------

ArrivalStream::ArrivalStream(const PopulationParams& params,
                             std::uint64_t seed, std::uint32_t client,
                             double per_client_rate)
    : rng_(exp::derive_seed(seed, (kArrivalStream << 32) | client), client),
      sessions_(params, seed, client),
      diurnal_(params.diurnal),
      client_(client),
      peak_(params.diurnal.peak()),
      horizon_sec_(sim::to_sec(params.horizon)),
      horizon_(params.horizon) {
  envelope_rate_ = per_client_rate * peak_;
  if (per_client_rate <= 0.0 || horizon_ <= 0) {
    done_ = true;
    return;
  }
  cur_ = sessions_.next();
  if (!cur_) done_ = true;
}

std::optional<sim::SimTime> ArrivalStream::next() {
  // Thinning (Lewis-Shedler): a homogeneous Poisson envelope at the
  // diurnal peak rate, each candidate kept with probability
  // multiplier(t)/peak.  Candidate gaps and accept draws come from the
  // client's private stream in a fixed order, and the session filter uses
  // a *separate* stream — so enabling churn only removes arrivals, never
  // moves the surviving timestamps, and with churn off the sequence is
  // bit-identical to the original materialized schedule.
  while (!done_) {
    t_sec_ += rng_.exponential(1.0 / envelope_rate_);
    if (t_sec_ >= horizon_sec_) break;
    const sim::SimTime t = sim::from_sec(t_sec_);
    if (t >= horizon_) break;  // integral-ns rounding guard
    const double accept = rng_.next_double() * peak_;
    if (accept > diurnal_.multiplier(t)) continue;  // thinned out
    while (cur_ && cur_->logout <= t) cur_ = sessions_.next();
    if (!cur_) break;               // logged out for the rest of the run
    if (t < cur_->login) continue;  // logged out right now: never issued
    return t;
  }
  done_ = true;
  return std::nullopt;
}

// --- ClientPopulation ----------------------------------------------------

ClientPopulation::ClientPopulation(PopulationParams params,
                                   std::uint64_t seed)
    : params_(params), seed_(seed) {
  const double of = std::clamp(params_.open_fraction, 0.0, 1.0);
  open_clients_ = static_cast<std::uint32_t>(
      std::lround(of * static_cast<double>(params_.clients)));
  think_rng_.reserve(params_.clients);
  for (std::uint32_t c = 0; c < params_.clients; ++c) {
    think_rng_.emplace_back(
        exp::derive_seed(seed_, (kThinkStream << 32) | c), c);
  }
}

double ClientPopulation::per_client_rate() const {
  if (open_clients_ == 0 || params_.offered_per_sec <= 0.0) return 0.0;
  return params_.offered_per_sec / static_cast<double>(open_clients_);
}

ArrivalStream ClientPopulation::stream(std::uint32_t client) const {
  const double rate = is_open(client) ? per_client_rate() : 0.0;
  return ArrivalStream(params_, seed_, client, rate);
}

SessionTimeline ClientPopulation::sessions(std::uint32_t client) const {
  return SessionTimeline(params_, seed_, client);
}

std::vector<sim::SimTime> ClientPopulation::arrivals(
    std::uint32_t client) const {
  std::vector<sim::SimTime> out;
  ArrivalStream s = stream(client);
  while (auto t = s.next()) out.push_back(*t);
  return out;
}

sim::Duration ClientPopulation::think_time(std::uint32_t client) {
  sim::Pcg32& rng = think_rng_.at(client);
  const double mean = params_.think_mean_ms;
  double ms = mean;
  switch (params_.think) {
    case ThinkDist::kExponential:
      ms = rng.exponential(mean);
      break;
    case ThinkDist::kPareto: {
      // Bounded Pareto over [mean/3, 200*mean], shape 1.5 (smaller =
      // heavier tail): most thinks are short, but the tail parks a client
      // for hundreds of means at a time.
      constexpr double kAlpha = 1.5;
      ms = rng.pareto(kAlpha, mean / 3.0, mean * 200.0);
      break;
    }
    case ThinkDist::kLognormal: {
      // Log-space standard deviation 1; mu chosen so
      // E[exp(N(mu, sigma^2))] = mean.
      constexpr double kSigma = 1.0;
      const double mu = std::log(mean) - kSigma * kSigma / 2.0;
      ms = std::exp(rng.normal(mu, kSigma));
      break;
    }
  }
  return std::max<sim::Duration>(1, sim::from_ms(ms));
}

}  // namespace now::serve
