#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/dyn/engine.hpp"
#include "bbb/par/parallel_for.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/sim/runner.hpp"

namespace perfbench {

namespace core = bbb::core;
namespace dyn = bbb::dyn;
namespace par = bbb::par;
namespace rng = bbb::rng;
namespace sim = bbb::sim;

std::uint64_t Plan::slab_bytes() const noexcept {
  // Compact: one 8-bit lane per bin. Wide: a 32-bit load plus a 32-bit
  // nonempty-index slot per bin.
  return layout == core::StateLayout::kCompact ? n : 8ULL * n;
}

std::string Plan::describe() const {
  std::string out = spec + " layout=" + std::string(core::to_string(layout)) +
                    " n=" + std::to_string(n);
  if (tier == Tier::kSim) {
    out += " m=" + std::to_string(m);
  } else {
    out += " workload=churn[" + std::to_string(population) +
           "] warmup=" + std::to_string(warmup) + " events=" + std::to_string(events);
  }
  out += " reps=" + std::to_string(replicates) + " threads=" + std::to_string(threads);
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim-greedy2", "sim-adaptive",
                                                 "giant-greedy2", "dyn-churn"};
  return names;
}

Plan make_plan(std::string_view name, bool smoke, std::uint32_t nproc) {
  Plan p;
  p.name = std::string(name);
  if (name == "sim-greedy2" || name == "sim-adaptive") {
    const bool greedy = name == "sim-greedy2";
    p.spec = greedy ? "greedy[2]" : "adaptive";
    p.layout = greedy ? core::StateLayout::kCompact : core::StateLayout::kWide;
    p.n = smoke ? (1U << 12) : (1U << 22);
    p.m = 8ULL * p.n;
    p.replicates = 2 * nproc;
    p.threads = nproc;
    p.exact_probes_per_ball = greedy ? 2 : 0;
    p.adaptive_bound = !greedy;
  } else if (name == "giant-greedy2") {
    // One replicate whose lane slab (1 byte per bin) exceeds the LLC. m is
    // n/2 rather than 2n so that several replicates fit in one run; the
    // per-ball cost is set by the slab size, not by the fill level.
    p.spec = "greedy[2]";
    p.layout = core::StateLayout::kCompact;
    p.n = smoke ? (1U << 14) : (1U << 27);
    p.m = p.n / 2;
    p.replicates = 1;
    p.threads = 1;
    p.exact_probes_per_ball = 2;
    p.beyond_llc = !smoke;
  } else if (name == "dyn-churn") {
    p.tier = Tier::kDyn;
    p.spec = "adaptive-net";
    p.layout = core::StateLayout::kWide;
    p.n = smoke ? (1U << 10) : (1U << 16);
    p.population = 4ULL * p.n;
    p.warmup = p.population;
    p.events = smoke ? (1ULL << 14) : (1ULL << 20);
    // Four replicates per pool thread, run back to back: with one per
    // thread, each call waited on its slowest replicate and the per-call
    // throughput spread twice as wide.
    p.replicates = 4 * nproc;
    p.threads = nproc;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  return p;
}

sim::ExperimentConfig sim_config(const Plan& p, std::uint64_t seed, bool counters) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = p.spec;
  cfg.m = p.m;
  cfg.n = p.n;
  cfg.replicates = p.replicates;
  cfg.seed = seed;
  cfg.layout = p.layout;
  cfg.obs.level = counters ? bbb::obs::ObsLevel::kCounters : bbb::obs::ObsLevel::kOff;
  return cfg;
}

dyn::DynConfig dyn_config(const Plan& p, std::uint64_t seed, bool counters) {
  dyn::DynConfig cfg;
  cfg.allocator_spec = p.spec;
  cfg.workload_spec = "churn[" + std::to_string(p.population) + "]";
  cfg.n = p.n;
  cfg.layout = p.layout;
  cfg.warmup = p.warmup;
  cfg.events = p.events;
  cfg.stride = p.events;  // one snapshot, at the end of the window
  cfg.replicates = p.replicates;
  cfg.seed = seed;
  cfg.obs.level = counters ? bbb::obs::ObsLevel::kCounters : bbb::obs::ObsLevel::kOff;
  return cfg;
}

namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

/// Checks on one sim replicate record; returns the failures.
std::vector<std::string> check_sim(const Plan& p, const sim::ReplicateRecord& r) {
  std::vector<std::string> bad;
  const auto hi = static_cast<double>(ceil_div(p.m, p.n));
  const auto lo = static_cast<double>(p.m / p.n);
  if (!r.completed) bad.emplace_back("replicate did not complete");
  if (r.max_load < hi) bad.emplace_back("max load below ceil(m/n)");
  if (r.min_load > lo) bad.emplace_back("min load above floor(m/n)");
  if (r.gap != r.max_load - r.min_load) bad.emplace_back("gap != max - min");
  if (!(r.psi >= 0.0)) bad.emplace_back("negative or NaN psi");
  if (p.adaptive_bound && r.max_load > hi + 1) {
    bad.emplace_back("adaptive max load exceeds ceil(m/n)+1");
  }
  const auto m = static_cast<double>(p.m);
  if (p.exact_probes_per_ball != 0 ? r.probes != m * p.exact_probes_per_ball
                                   : r.probes < m) {
    bad.emplace_back("probe count inconsistent with m");
  }
  return bad;
}

/// Checks on one dyn replicate; returns the failures.
std::vector<std::string> check_dyn(const Plan& p, const dyn::DynReplicate& r) {
  std::vector<std::string> bad;
  if (r.dropped_departures != 0) bad.emplace_back("dropped departures");
  if (r.snapshots.empty() || r.snapshots.back().events != p.events) {
    bad.emplace_back("missing end-of-window snapshot");
  } else if (r.snapshots.back().balls != p.population) {
    bad.emplace_back("net population not conserved");
  }
  const auto pop = static_cast<double>(p.population);
  if (r.mean_balls < pop - 1.0 || r.mean_balls > pop) {
    bad.emplace_back("time-averaged population outside [P-1, P]");
  }
  if (r.peak_max < ceil_div(p.population, p.n)) bad.emplace_back("peak max below P/n");
  if (!(r.mean_psi >= 0.0)) bad.emplace_back("negative or NaN psi");
  return bad;
}

void record_failures(CallResult& out, std::uint32_t replicate,
                     const std::vector<std::string>& bad, std::uint64_t ops) {
  if (bad.empty()) return;
  out.failed_ops += ops;
  for (const std::string& why : bad) {
    out.failures.push_back("replicate " + std::to_string(replicate) + ": " + why);
  }
}

}  // namespace

Runner::Runner(Plan plan, std::uint64_t seed, Tracer* tracer)
    : plan_(std::move(plan)), seed_(seed), tracer_(tracer), pool_(plan_.threads) {}

std::uint64_t Runner::call_seed(std::uint64_t index) const {
  return rng::derive_seed(seed_, index);
}

double Runner::measure_setup_s() const {
  const auto start = std::chrono::steady_clock::now();
  // Parse and validate the specs, as run_experiment / run_dynamic do first.
  if (plan_.tier == Tier::kSim) {
    (void)core::make_protocol(plan_.spec)->name();
  } else {
    (void)dyn::make_workload("churn[" + std::to_string(plan_.population) + "]", plan_.n);
  }
  par::ThreadPool pool(plan_.threads);
  std::vector<std::unique_ptr<core::StreamingAllocator>> states(plan_.replicates);
  par::parallel_for(pool, 0, plan_.replicates, [&](std::uint64_t r) {
    states[r] = core::make_streaming_allocator(plan_.spec, plan_.n, plan_.m, plan_.layout);
  });
  return seconds_since(start);
}

CallResult Runner::call(std::uint64_t index, bool traced) {
  return plan_.tier == Tier::kSim ? call_sim(index, traced) : call_dyn(index, traced);
}

CallResult Runner::call_sim(std::uint64_t index, bool traced) {
  CallResult out;
  std::vector<sim::ReplicateRecord> records;
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(tracer_, "e2e.call", 0);
    span.set_count(plan_.ops_per_call());
    span.attr("traced", traced ? 1.0 : 0.0);
    span.attr("threads", std::min(plan_.threads, plan_.replicates));
    if (!traced) {
      sim::RunSummary summary =
          sim::run_experiment(sim_config(plan_, call_seed(index), false), pool_);
      records = std::move(summary.records);
    } else {
      const sim::ExperimentConfig cfg = sim_config(plan_, call_seed(index), true);
      {
        ScopedSpan parse(tracer_, "sim.validate", span.id());
        (void)core::make_protocol(cfg.protocol_spec)->name();
      }
      ScopedSpan fan(tracer_, "par.parallel_map", span.id());
      fan.attr("threads", static_cast<double>(pool_.num_threads()));
      const std::uint32_t fan_id = fan.id();
      records = par::parallel_map<sim::ReplicateRecord>(
          pool_, cfg.replicates, [&](std::uint64_t r) {
            ScopedSpan rep(tracer_, "workload.replicate", fan_id);
            rep.set_count(cfg.m);
            return sim::run_replicate(cfg, static_cast<std::uint32_t>(r));
          });
    }
  }
  out.wall_s = seconds_since(start);
  out.ops = plan_.ops_per_call();
  if (records.size() != plan_.replicates) {
    out.failed_ops = out.ops;
    out.failures.emplace_back("replicate records missing");
    return out;
  }
  for (std::uint32_t r = 0; r < records.size(); ++r) {
    record_failures(out, r, check_sim(plan_, records[r]), plan_.m);
    out.discarded_words += records[r].counters.lookahead_discarded_words;
  }
  const sim::ReplicateRecord& r0 = records.front();
  out.echo = Echo{r0.max_load, r0.gap, r0.psi, r0.psi / plan_.n};
  return out;
}

CallResult Runner::call_dyn(std::uint64_t index, bool traced) {
  CallResult out;
  std::vector<dyn::DynReplicate> reps;
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(tracer_, "e2e.call", 0);
    span.set_count(plan_.ops_per_call());
    span.attr("traced", traced ? 1.0 : 0.0);
    span.attr("threads", std::min(plan_.threads, plan_.replicates));
    if (!traced) {
      dyn::DynSummary summary =
          dyn::run_dynamic(dyn_config(plan_, call_seed(index), false), pool_);
      reps = std::move(summary.replicates);
    } else {
      const dyn::DynConfig cfg = dyn_config(plan_, call_seed(index), true);
      {
        ScopedSpan parse(tracer_, "sim.validate", span.id());
        (void)dyn::make_workload(cfg.workload_spec, cfg.n)->name();
      }
      ScopedSpan fan(tracer_, "par.parallel_map", span.id());
      fan.attr("threads", static_cast<double>(pool_.num_threads()));
      const std::uint32_t fan_id = fan.id();
      const std::uint64_t per_rep = plan_.ops_per_replicate();
      reps = par::parallel_map<dyn::DynReplicate>(
          pool_, cfg.replicates, [&](std::uint64_t r) {
            ScopedSpan rep(tracer_, "workload.replicate", fan_id);
            rep.set_count(per_rep);
            return dyn::run_dynamic_replicate(cfg, static_cast<std::uint32_t>(r));
          });
    }
  }
  out.wall_s = seconds_since(start);
  out.ops = plan_.ops_per_call();
  if (reps.size() != plan_.replicates) {
    out.failed_ops = out.ops;
    out.failures.emplace_back("replicate records missing");
    return out;
  }
  for (std::uint32_t r = 0; r < reps.size(); ++r) {
    record_failures(out, r, check_dyn(plan_, reps[r]), plan_.ops_per_replicate());
    out.discarded_words += reps[r].counters.lookahead_discarded_words;
  }
  const dyn::DynReplicate& r0 = reps.front();
  out.echo = Echo{static_cast<double>(r0.peak_max), r0.mean_gap, r0.mean_psi,
                  r0.mean_psi / plan_.n};
  return out;
}

std::vector<std::string> Runner::verify(std::uint64_t index,
                                        const CallResult& result) const {
  std::vector<std::string> bad;
  if (plan_.tier == Tier::kDyn) {
    const dyn::DynReplicate rep =
        dyn::run_dynamic_replicate(dyn_config(plan_, call_seed(index), false), 0);
    if (rep.snapshots.empty() || rep.snapshots.back().balls != plan_.population) {
      bad.emplace_back("verify: net population not conserved");
    }
    if (static_cast<double>(rep.peak_max) != result.echo.max_load ||
        rep.mean_gap != result.echo.gap || rep.mean_psi != result.echo.psi) {
      bad.emplace_back("verify: single-thread replicate 0 differs from the pooled run");
    }
    return bad;
  }
  // The streaming form of the replicate, read off the state itself.
  const auto alloc = core::make_streaming_allocator(plan_.spec, plan_.n, plan_.m, plan_.layout);
  rng::Engine gen = rng::SeedSequence(call_seed(index)).engine(0);
  alloc->set_engine_exclusive(true);
  alloc->place_batch(plan_.m, gen);
  alloc->finalize(gen);
  const core::BinState& state = alloc->state();
  const std::vector<std::uint32_t>& levels = state.level_counts();
  std::uint64_t bins = 0;
  std::uint64_t balls = 0;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    bins += levels[l];
    balls += static_cast<std::uint64_t>(l) * levels[l];
  }
  if (state.balls() != plan_.m || balls != plan_.m) {
    bad.emplace_back("verify: balls not conserved");
  }
  if (bins != plan_.n) bad.emplace_back("verify: level histogram does not cover n bins");
  if (static_cast<double>(state.max_load()) != result.echo.max_load ||
      static_cast<double>(state.gap()) != result.echo.gap) {
    bad.emplace_back("verify: max load / gap differ from the timed call");
  }
  // The wide path rescans Ψ from the loads; the state keeps it
  // incrementally — equal up to floating-point summation order.
  const double tol = 1e-9 * std::max(1.0, std::abs(result.echo.psi));
  if (std::abs(state.psi() - result.echo.psi) > tol) {
    bad.emplace_back("verify: psi differs from the timed call");
  }
  return bad;
}

}  // namespace perfbench
