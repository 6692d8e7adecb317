#pragma once
/// \file workload.hpp
/// Event-stream generators for the dynamic engine: who arrives, who
/// leaves, and when.
///
/// A workload is a stateful generator producing one `DynEvent` at a time
/// from the current system occupancy (`WorkloadContext`). Continuous-time
/// workloads simulate competing exponential clocks (arrival rate vs total
/// departure rate) exactly; discrete workloads advance a unit clock.
///
/// The stock workloads cover the dynamic scenarios of the related work:
///  * supermarket[lambda*100] — Poisson arrivals at rate lambda*n, each
///    nonempty bin serves at unit rate (Luczak & McDiarmid, "On the power
///    of two choices: balls and bins in continuous time"); departures pick
///    a uniformly random *nonempty bin*;
///  * churn[population] / churn-oldest[population] — fixed-population
///    churn: fill to `population` balls, then forever kill one ball
///    (uniform or oldest) and re-place one — the steady-traffic regime the
///    ROADMAP's north star asks about;
///  * bursty[on*100,off*100,switch*100] — on/off modulated Poisson
///    arrivals with per-ball unit-rate departures (M/M/inf with a phase
///    process), the flash-crowd scenario;
///  * chains[lambda*100,s*100,max] — chain arrivals whose length is
///    Zipf(s)-distributed on {1..max} (Batu–Berenbrink–Cooper
///    chains-into-bins), per-ball departures; chain rate is normalized by
///    the mean length so the offered per-ball load is still lambda*n.
///
/// A `weighted:` prefix on chains turns on *atomic* chain placement — the
/// whole chain lands in one bin as a single weighted decision (the actual
/// chains-into-bins process) instead of being exploded into independent
/// unit placements. The engine routes ev.weight through
/// `PlacementRule::place_one(state, weight, gen)` for rules that
/// `supports_weights()` and falls back to the unit explode otherwise.
///
/// Scaled-by-100 integer spec arguments follow the registry convention of
/// skewed-adaptive[s*100].

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"
#include "bbb/rng/zipf.hpp"

namespace bbb::dyn {

enum class EventKind : std::uint8_t {
  kArrival,    ///< `weight` balls join (a chain arrives as one event)
  kDeparture,  ///< one ball leaves; the victim is picked per DepartSelect
};

/// How a departure event selects its victim.
enum class DepartSelect : std::uint8_t {
  kUniformBall,        ///< uniform over live balls (per-ball unit rates)
  kOldestBall,         ///< FIFO over arrival order
  kUniformNonemptyBin, ///< uniform over busy bins (supermarket service)
};

/// One workload event.
struct DynEvent {
  EventKind kind = EventKind::kArrival;
  std::uint32_t weight = 1;  ///< balls in this arrival (1 unless chains)
  double time = 0.0;         ///< absolute event time (strictly increasing)
};

/// Occupancy snapshot the generator needs to compute its rates.
struct WorkloadContext {
  std::uint64_t balls = 0;        ///< balls currently in the system
  std::uint32_t nonempty_bins = 0;
};

/// Abstract event-stream generator.
class Workload {
 public:
  virtual ~Workload();

  /// Spec-canonical identifier, e.g. "supermarket[90]".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Victim-selection rule for every departure this workload emits.
  [[nodiscard]] virtual DepartSelect depart_select() const noexcept = 0;

  /// Balls the workload holds in steady state (an upper estimate where
  /// the rule matters) — what the dyn engine sizes its layout choice by.
  [[nodiscard]] virtual std::uint64_t steady_balls() const noexcept = 0;

  /// True when a weight-w arrival is one atomic decision (the whole chain
  /// into one bin) rather than w independent unit placements.
  [[nodiscard]] virtual bool atomic_arrivals() const noexcept { return false; }

  /// Produce the next event. Generators never emit a departure when
  /// ctx.balls == 0 (the corresponding clock has rate zero).
  [[nodiscard]] virtual DynEvent next(rng::Engine& gen, const WorkloadContext& ctx) = 0;
};

/// The supermarket model: Poisson(lambda*n) arrivals, unit-rate service at
/// every nonempty bin. Stable for lambda < 1.
class SupermarketWorkload final : public Workload {
 public:
  /// \throws std::invalid_argument unless 0 < lambda < 1 and n > 0.
  SupermarketWorkload(std::uint32_t n, double lambda);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] DepartSelect depart_select() const noexcept override {
    return DepartSelect::kUniformNonemptyBin;
  }
  /// The one-choice M/M/1 mean n lambda / (1 - lambda); d-choice holds fewer.
  [[nodiscard]] std::uint64_t steady_balls() const noexcept override {
    return static_cast<std::uint64_t>(n_ * lambda_ / (1.0 - lambda_)) + 1;
  }
  [[nodiscard]] DynEvent next(rng::Engine& gen, const WorkloadContext& ctx) override;
  [[nodiscard]] double lambda() const noexcept { return lambda_; }

 private:
  std::uint32_t n_;
  double lambda_;
  double time_ = 0.0;
};

/// Fixed-population churn: `population` arrivals, then strictly
/// alternating departure / arrival pairs forever.
class ChurnWorkload final : public Workload {
 public:
  /// \throws std::invalid_argument if population == 0.
  ChurnWorkload(std::uint64_t population, DepartSelect select);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] DepartSelect depart_select() const noexcept override { return select_; }
  [[nodiscard]] std::uint64_t steady_balls() const noexcept override {
    return population_;
  }
  [[nodiscard]] DynEvent next(rng::Engine& gen, const WorkloadContext& ctx) override;
  [[nodiscard]] std::uint64_t population() const noexcept { return population_; }

 private:
  std::uint64_t population_;
  DepartSelect select_;
  std::uint64_t filled_ = 0;
  bool next_is_departure_ = true;  // meaningful once filled_ == population_
  double time_ = 0.0;
};

/// On/off modulated Poisson arrivals (rate lambda_on*n or lambda_off*n),
/// per-ball unit-rate departures, exponential phase holding times with
/// rate switch_rate.
class BurstyWorkload final : public Workload {
 public:
  /// \throws std::invalid_argument if rates are negative, both lambdas are
  /// zero, or switch_rate <= 0.
  BurstyWorkload(std::uint32_t n, double lambda_on, double lambda_off,
                 double switch_rate);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] DepartSelect depart_select() const noexcept override {
    return DepartSelect::kUniformBall;
  }
  /// The M/M/inf mean of the busier phase, n max(lambda_on, lambda_off).
  [[nodiscard]] std::uint64_t steady_balls() const noexcept override {
    return static_cast<std::uint64_t>(n_ * std::max(lambda_on_, lambda_off_)) + 1;
  }
  [[nodiscard]] DynEvent next(rng::Engine& gen, const WorkloadContext& ctx) override;
  /// Current phase (exposed for tests).
  [[nodiscard]] bool on() const noexcept { return on_; }

 private:
  std::uint32_t n_;
  double lambda_on_;
  double lambda_off_;
  double switch_rate_;
  bool on_ = true;
  double time_ = 0.0;
};

/// Chain arrivals with Zipf(s) lengths on {1..max_len}; per-ball
/// departures at unit rate. Chain rate lambda*n / E[len] keeps the offered
/// per-ball load at lambda*n. With `atomic` (the `weighted:` spec prefix)
/// each chain is one whole-chain-into-one-bin decision.
class ChainWorkload final : public Workload {
 public:
  /// \throws std::invalid_argument unless 0 < lambda < 1, s >= 0,
  /// max_len >= 1.
  ChainWorkload(std::uint32_t n, double lambda, double s, std::uint32_t max_len,
                bool atomic = false);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] DepartSelect depart_select() const noexcept override {
    return DepartSelect::kUniformBall;
  }
  [[nodiscard]] bool atomic_arrivals() const noexcept override { return atomic_; }
  /// The M/M/inf mean of the offered per-ball load, n lambda.
  [[nodiscard]] std::uint64_t steady_balls() const noexcept override {
    return static_cast<std::uint64_t>(n_ * lambda_) + 1;
  }
  [[nodiscard]] DynEvent next(rng::Engine& gen, const WorkloadContext& ctx) override;
  [[nodiscard]] double mean_length() const noexcept { return mean_length_; }

 private:
  std::uint32_t n_;
  double lambda_;
  double s_;
  std::uint32_t max_len_;
  bool atomic_;
  rng::ZipfDist lengths_;
  double mean_length_;
  double chain_rate_;
  double time_ = 0.0;
};

/// Build a workload from a spec string. Recognized specs:
///   supermarket[lambda*100]        e.g. supermarket[90]
///   churn[population]              uniform victim
///   churn-oldest[population]       FIFO victim
///   bursty[on*100,off*100,switch*100]
///   chains[lambda*100,s*100,max_len]
///   weighted:chains[lambda*100,s*100,max_len]   atomic whole-chain arrivals
/// \throws std::invalid_argument for unknown names or malformed args
///         (including `weighted:` on a workload other than chains).
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& spec,
                                                      std::uint32_t n);

/// All recognized spec shapes, for --help / --list output.
[[nodiscard]] std::vector<std::string> workload_specs();

}  // namespace bbb::dyn
