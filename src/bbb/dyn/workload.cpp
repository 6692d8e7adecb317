#include "bbb/dyn/workload.hpp"

#include <cmath>
#include <stdexcept>

#include "bbb/core/spec.hpp"

namespace bbb::dyn {

namespace {

/// One exponential inter-event time at total rate `rate`.
double exp_step(rng::Engine& gen, double rate) {
  return -std::log(rng::next_double_nonzero(gen)) / rate;
}

std::string scaled100(double x) {
  return std::to_string(static_cast<std::uint64_t>(std::llround(x * 100.0)));
}

/// max_len sizes the length sampler, so it is checked in the member
/// initialiser, before the tables are allocated.
std::uint32_t checked_max_len(std::uint32_t max_len) {
  if (max_len == 0) throw std::invalid_argument("ChainWorkload: max_len must be >= 1");
  if (max_len > ChainWorkload::kMaxLen) {
    throw std::invalid_argument("ChainWorkload: max_len " + std::to_string(max_len) +
                                " exceeds the maximum " +
                                std::to_string(ChainWorkload::kMaxLen));
  }
  return max_len;
}

}  // namespace

Workload::~Workload() = default;

// ---------------------------------------------------------------------------
// SupermarketWorkload
// ---------------------------------------------------------------------------

SupermarketWorkload::SupermarketWorkload(std::uint32_t n, double lambda)
    : n_(n), lambda_(lambda) {
  if (n == 0) throw std::invalid_argument("SupermarketWorkload: n must be positive");
  if (!(lambda > 0.0) || lambda >= 1.0) {
    throw std::invalid_argument(
        "SupermarketWorkload: stability needs 0 < lambda < 1");
  }
}

std::string SupermarketWorkload::name() const {
  return "supermarket[" + scaled100(lambda_) + "]";
}

DynEvent SupermarketWorkload::next(rng::Engine& gen, const WorkloadContext& ctx) {
  const double arrival_rate = lambda_ * static_cast<double>(n_);
  const double depart_rate = static_cast<double>(ctx.nonempty_bins);
  const double total = arrival_rate + depart_rate;
  time_ += exp_step(gen, total);
  DynEvent ev;
  ev.time = time_;
  ev.kind = rng::next_double(gen) * total < arrival_rate ? EventKind::kArrival
                                                         : EventKind::kDeparture;
  return ev;
}

// ---------------------------------------------------------------------------
// ChurnWorkload
// ---------------------------------------------------------------------------

ChurnWorkload::ChurnWorkload(std::uint64_t population, DepartSelect select)
    : population_(population), select_(select) {
  if (population == 0) {
    throw std::invalid_argument("ChurnWorkload: population must be positive");
  }
  if (select == DepartSelect::kUniformNonemptyBin) {
    throw std::invalid_argument("ChurnWorkload: victims are balls, not bins");
  }
}

std::string ChurnWorkload::name() const {
  const std::string base =
      select_ == DepartSelect::kOldestBall ? "churn-oldest" : "churn";
  return base + "[" + std::to_string(population_) + "]";
}

DynEvent ChurnWorkload::next(rng::Engine& /*gen*/, const WorkloadContext& /*ctx*/) {
  DynEvent ev;
  if (filled_ < population_) {
    ++filled_;
    time_ += 1.0;
    ev.kind = EventKind::kArrival;
  } else {
    time_ += 0.5;  // one depart + re-place pair per unit of churn time
    ev.kind = next_is_departure_ ? EventKind::kDeparture : EventKind::kArrival;
    next_is_departure_ = !next_is_departure_;
  }
  ev.time = time_;
  return ev;
}

// ---------------------------------------------------------------------------
// BurstyWorkload
// ---------------------------------------------------------------------------

BurstyWorkload::BurstyWorkload(std::uint32_t n, double lambda_on, double lambda_off,
                               double switch_rate)
    : n_(n), lambda_on_(lambda_on), lambda_off_(lambda_off), switch_rate_(switch_rate) {
  if (n == 0) throw std::invalid_argument("BurstyWorkload: n must be positive");
  if (lambda_on < 0.0 || lambda_off < 0.0) {
    throw std::invalid_argument("BurstyWorkload: negative arrival rate");
  }
  if (lambda_on == 0.0 && lambda_off == 0.0) {
    throw std::invalid_argument("BurstyWorkload: some phase must produce arrivals");
  }
  if (!(switch_rate > 0.0)) {
    throw std::invalid_argument("BurstyWorkload: switch_rate must be positive");
  }
}

std::string BurstyWorkload::name() const {
  return "bursty[" + scaled100(lambda_on_) + "," + scaled100(lambda_off_) + "," +
         scaled100(switch_rate_) + "]";
}

DynEvent BurstyWorkload::next(rng::Engine& gen, const WorkloadContext& ctx) {
  // Phase switches are internal clock events: consume them until an
  // arrival or departure fires. The departure rate (ctx.balls) is frozen
  // for the duration of this call, which is exact because no ball moves
  // between events.
  for (;;) {
    const double arrival_rate =
        (on_ ? lambda_on_ : lambda_off_) * static_cast<double>(n_);
    const double depart_rate = static_cast<double>(ctx.balls);
    const double total = arrival_rate + depart_rate + switch_rate_;
    time_ += exp_step(gen, total);
    const double u = rng::next_double(gen) * total;
    if (u < arrival_rate) {
      DynEvent ev;
      ev.kind = EventKind::kArrival;
      ev.time = time_;
      return ev;
    }
    if (u < arrival_rate + depart_rate) {
      DynEvent ev;
      ev.kind = EventKind::kDeparture;
      ev.time = time_;
      return ev;
    }
    on_ = !on_;
  }
}

// ---------------------------------------------------------------------------
// ChainWorkload
// ---------------------------------------------------------------------------

ChainWorkload::ChainWorkload(std::uint32_t n, double lambda, double s,
                             std::uint32_t max_len, bool atomic)
    : n_(n),
      lambda_(lambda),
      s_(s),
      max_len_(max_len),
      atomic_(atomic),
      lengths_(checked_max_len(max_len), s < 0.0 ? 0.0 : s) {
  if (n == 0) throw std::invalid_argument("ChainWorkload: n must be positive");
  if (!(lambda > 0.0) || lambda >= 1.0) {
    throw std::invalid_argument("ChainWorkload: stability needs 0 < lambda < 1");
  }
  if (s < 0.0) throw std::invalid_argument("ChainWorkload: s must be >= 0");
  double mean = 0.0;
  for (std::size_t i = 0; i < max_len_; ++i) {
    mean += lengths_.probability(i) * static_cast<double>(i + 1);
  }
  mean_length_ = mean;
  chain_rate_ = lambda_ * static_cast<double>(n_) / mean_length_;
}

std::string ChainWorkload::name() const {
  const std::string base = "chains[" + scaled100(lambda_) + "," + scaled100(s_) +
                           "," + std::to_string(max_len_) + "]";
  return atomic_ ? "weighted:" + base : base;
}

DynEvent ChainWorkload::next(rng::Engine& gen, const WorkloadContext& ctx) {
  const double depart_rate = static_cast<double>(ctx.balls);
  const double total = chain_rate_ + depart_rate;
  time_ += exp_step(gen, total);
  DynEvent ev;
  ev.time = time_;
  if (rng::next_double(gen) * total < chain_rate_) {
    ev.kind = EventKind::kArrival;
    ev.weight = lengths_(gen) + 1;  // ZipfDist samples {0..max-1}
  } else {
    ev.kind = EventKind::kDeparture;
  }
  return ev;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kKind = "workload";

std::uint64_t arg_at(const core::ParsedSpec& s, std::size_t i, const std::string& spec) {
  return core::spec_arg(s, i, spec, kKind);
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& spec, std::uint32_t n) {
  const core::SpecPrefix prefix = core::split_spec_prefix(spec, kKind);
  if (!prefix.capacities.empty()) {
    throw std::invalid_argument("workload spec '" + spec +
                                "': 'capacities=' is an allocator modifier, not a "
                                "workload one");
  }
  const core::ParsedSpec s = core::parse_spec(prefix.rest, kKind);
  if (prefix.weighted && s.name != "chains") {
    throw std::invalid_argument("workload spec '" + spec +
                                "': 'weighted:' applies to chains only");
  }
  if (s.name == "supermarket") {
    const double lambda = static_cast<double>(arg_at(s, 0, spec)) / 100.0;
    return std::make_unique<SupermarketWorkload>(n, lambda);
  }
  if (s.name == "churn") {
    return std::make_unique<ChurnWorkload>(arg_at(s, 0, spec),
                                           DepartSelect::kUniformBall);
  }
  if (s.name == "churn-oldest") {
    return std::make_unique<ChurnWorkload>(arg_at(s, 0, spec),
                                           DepartSelect::kOldestBall);
  }
  if (s.name == "bursty") {
    return std::make_unique<BurstyWorkload>(
        n, static_cast<double>(arg_at(s, 0, spec)) / 100.0,
        static_cast<double>(arg_at(s, 1, spec)) / 100.0,
        static_cast<double>(arg_at(s, 2, spec)) / 100.0);
  }
  if (s.name == "chains") {
    return std::make_unique<ChainWorkload>(
        n, static_cast<double>(arg_at(s, 0, spec)) / 100.0,
        static_cast<double>(arg_at(s, 1, spec)) / 100.0,
        core::spec_arg_u32(s, 2, spec, kKind), prefix.weighted);
  }
  throw std::invalid_argument("unknown workload '" + s.name + "'");
}

std::vector<std::string> workload_specs() {
  return {"supermarket[lambda*100]",
          "churn[population]",
          "churn-oldest[population]",
          "bursty[on*100,off*100,switch*100]",
          "chains[lambda*100,s*100,max_len]",
          "weighted:chains[lambda*100,s*100,max_len]"};
}

}  // namespace bbb::dyn
