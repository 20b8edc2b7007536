// now::serve — client populations for open-arrival request serving.
//
// Every bench so far replays a closed batch: N clients, each issuing the
// next request only after the previous one completed.  A building acting
// as one service (Gray's "Locally Served Network Computers": thin clients
// firing millions of requests at a local cluster) does not behave like
// that — requests keep *arriving* whether or not the cluster is keeping
// up, which is exactly why overload shows up as a latency tail instead of
// a throughput plateau.  ClientPopulation models that:
//
//   * open clients    — timer-driven Poisson arrivals, modulated by a
//                       diurnal load curve (thinned non-homogeneous
//                       Poisson), independent of completions;
//   * closed clients  — the classic loop (issue, wait, think, repeat)
//                       with exponential / bounded-Pareto / lognormal
//                       think times, for hybrid populations;
//   * sessions        — optional login/logout churn riding the diurnal
//                       curve: clients only generate traffic while a
//                       session is live, and logins cluster at the
//                       daytime peak (SessionTimeline);
//   * determinism     — every draw comes from a per-client Pcg32 seeded
//                       with exp::derive_seed(seed, stream|client), so a
//                       population's entire arrival schedule is a pure
//                       function of its seed: identical under --jobs 1
//                       and --jobs N.
//
// Schedules are *streamed*, not materialized: ArrivalStream generates one
// client's arrivals lazily (O(1) state per client), and the serving
// workload keeps one pending engine event per client — memory stays
// O(clients) however long the horizon or high the rate, which is what
// lets a population scale to thousands of thin clients.  arrivals()
// materializes one client's full schedule for tests and small runs by
// running its stream to exhaustion.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace now::serve {

enum class ThinkDist : std::uint8_t {
  kExponential,  // memoryless think times (Poisson closed loop)
  kPareto,       // bounded Pareto: heavy-tailed bursts of activity
  kLognormal,    // multiplicative human timing (log-space normal)
};

const char* to_string(ThinkDist d);

/// Day/night load shape: multiplier(t) = max(0, 1 + amplitude *
/// sin(2*pi*t/period)), so the first peak falls a quarter period in.
/// amplitude 0 is a flat curve; 0.6 gives a 1.6x daytime peak over a 0.4x
/// night trough.  Pure function of t, so it never perturbs determinism.
struct DiurnalCurve {
  double amplitude = 0.0;
  sim::Duration period = 24 * sim::kHour;

  double multiplier(sim::SimTime t) const;
  /// Upper bound of multiplier() over all t (the thinning envelope).
  double peak() const;
};

/// Login/logout churn.  Disabled (the default) means every client is
/// logged in for the whole horizon — byte-identical schedules to builds
/// that predate sessions.  Enabled, each client alternates logged-in
/// spells (mean `mean_on`) and logged-out gaps whose *login hazard* rides
/// the diurnal curve (rate multiplier(t)/mean_off, Lewis-Shedler
/// thinning): more of the population is live at the daytime peak, which
/// is how a building's load curve actually moves.
struct SessionParams {
  /// Mean logged-in spell.  0 disables churn.
  sim::Duration mean_on = 0;
  /// Mean logged-out gap at diurnal multiplier 1.  0 disables churn.
  sim::Duration mean_off = 0;

  bool enabled() const { return mean_on > 0 && mean_off > 0; }
};

struct PopulationParams {
  std::uint32_t clients = 16;
  /// Fraction of clients issuing open arrivals; the rest run closed
  /// loops.  Clients [0, open_clients()) are the open ones.
  double open_fraction = 1.0;
  /// Aggregate arrival rate (requests/second) across all open clients
  /// when the diurnal multiplier is 1; split evenly between them.
  double offered_per_sec = 200.0;
  /// Closed-loop think-time distribution and its mean.
  ThinkDist think = ThinkDist::kExponential;
  double think_mean_ms = 50.0;
  DiurnalCurve diurnal;
  /// Login/logout churn layer (applies to open and closed clients).
  SessionParams sessions;
  /// No arrival is generated at or past this instant; closed loops stop
  /// re-issuing once the clock reaches it.
  sim::SimTime horizon = 30 * sim::kSecond;
};

/// One logged-in spell, [login, logout), clipped to the horizon.
struct Session {
  sim::SimTime login = 0;
  sim::SimTime logout = 0;
};

/// Lazy generator of one client's login/logout intervals.  Pure function
/// of (seed, client): any number of independently constructed timelines
/// for the same client yield the identical interval sequence, so the
/// arrival filter and the sessions_active gauge can each walk their own
/// copy without coordinating.  With churn disabled it yields exactly one
/// session spanning [0, horizon) and draws nothing from the RNG.
class SessionTimeline {
 public:
  SessionTimeline(const PopulationParams& params, std::uint64_t seed,
                  std::uint32_t client);

  /// Next logged-in interval with login < horizon, in increasing order;
  /// nullopt once the horizon is exhausted.
  std::optional<Session> next();

 private:
  sim::Pcg32 rng_;
  DiurnalCurve diurnal_;
  double mean_on_sec_ = 0.0;
  double mean_off_sec_ = 0.0;
  double horizon_sec_ = 0.0;
  sim::SimTime horizon_ = 0;
  double t_sec_ = 0.0;  // generation cursor
  bool enabled_ = false;
  bool done_ = false;
  bool first_ = true;
};

/// Lazy generator of one open client's arrival instants: a homogeneous
/// Poisson envelope at the diurnal peak rate, thinned to the diurnal
/// curve (Lewis-Shedler) and filtered to logged-in session intervals.
/// O(1) state per client — one RNG, one cursor, one session window.  The
/// draw sequence is identical to the materialized path, so
/// ClientPopulation::arrivals(c) == collecting stream(c) to exhaustion.
class ArrivalStream {
 public:
  ArrivalStream(const PopulationParams& params, std::uint64_t seed,
                std::uint32_t client, double per_client_rate);

  std::uint32_t client() const { return client_; }

  /// Next arrival instant < horizon, strictly increasing; nullopt once
  /// the horizon is exhausted.
  std::optional<sim::SimTime> next();

 private:
  sim::Pcg32 rng_;
  SessionTimeline sessions_;
  DiurnalCurve diurnal_;
  std::uint32_t client_ = 0;
  double envelope_rate_ = 0.0;  // per-client rate * diurnal peak
  double peak_ = 1.0;
  double horizon_sec_ = 0.0;
  sim::SimTime horizon_ = 0;
  double t_sec_ = 0.0;
  std::optional<Session> cur_;  // current/next session window
  bool done_ = false;
};

class ClientPopulation {
 public:
  ClientPopulation(PopulationParams params, std::uint64_t seed);

  std::uint32_t clients() const {
    return static_cast<std::uint32_t>(params_.clients);
  }
  std::uint32_t open_clients() const { return open_clients_; }
  bool is_open(std::uint32_t client) const { return client < open_clients_; }

  /// `client`'s lazy arrival generator (empty stream for closed clients).
  /// Streams are independent: any call order, any number of copies.
  ArrivalStream stream(std::uint32_t client) const;

  /// `client`'s lazy session timeline (login/logout churn; one full-
  /// horizon session when churn is disabled).
  SessionTimeline sessions(std::uint32_t client) const;

  /// Materializes `client`'s complete open-arrival schedule by running
  /// its stream to exhaustion.  Pure function of (seed, client).
  /// O(arrivals) memory — building-scale callers use stream() instead.
  std::vector<sim::SimTime> arrivals(std::uint32_t client) const;

  /// Draws `client`'s next closed-loop think time (advances the client's
  /// private stream).  Always >= 1 ns.
  sim::Duration think_time(std::uint32_t client);

  /// Per-open-client arrival rate at diurnal multiplier 1 (0 when there
  /// are no open clients).
  double per_client_rate() const;

  const PopulationParams& params() const { return params_; }
  std::uint64_t seed() const { return seed_; }

 private:
  PopulationParams params_;
  std::uint64_t seed_;
  std::uint32_t open_clients_;
  std::vector<sim::Pcg32> think_rng_;  // one stream per client
};

}  // namespace now::serve
