#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bbb/core/batch_kernel.hpp"
#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/dyn/engine.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/sim/runner.hpp"

namespace perfbench {

namespace core = bbb::core;
namespace dyn = bbb::dyn;
namespace rng = bbb::rng;
namespace sim = bbb::sim;

namespace {

/// Keeps measured loops' results observable so they are not optimized away.
volatile std::uint64_t g_sink = 0;

/// Sizes of the layer loops for one traced workload (see layers.hpp).
struct Shape {
  std::uint32_t n_compact = 1;
  std::uint32_t n_wide = 1;
  std::uint64_t k_rng = 0;    ///< draws per rng loop
  std::uint64_t k_micro = 0;  ///< adds / place_one calls per loop
  // The sim replicate the decomposition explains, and its bare place loop.
  sim::ExperimentConfig sim;
  bool bare_loop_is_batch = true;  ///< compact: place_batch; wide: place_one
  std::uint64_t k_batch = 0;
  std::uint32_t adaptive_n = 1;
  std::uint64_t adaptive_m = 0;
  std::uint64_t shard_m = 0;
};

Shape shape_for(const Plan& plan, bool smoke, std::uint64_t seed) {
  Shape s;
  s.n_compact = plan.n;
  s.n_wide = std::min(plan.n, smoke ? (1U << 12) : (1U << 22));
  s.k_rng = smoke ? (1ULL << 14) : (1ULL << 24);
  s.k_micro = smoke ? (1ULL << 14) : (1ULL << 23);
  if (plan.tier == Tier::kSim) {
    s.sim = sim_config(plan, seed, false);
  } else {
    // dyn-churn drives no sim replicate; decompose greedy[2] compact at
    // its n instead, so the sim.* metrics stay defined.
    Plan greedy = plan;
    greedy.tier = Tier::kSim;
    greedy.spec = "greedy[2]";
    greedy.layout = core::StateLayout::kCompact;
    greedy.m = smoke ? (1ULL << 14) : (1ULL << 22);
    s.sim = sim_config(greedy, seed, false);
  }
  s.sim.replicates = 1;
  s.bare_loop_is_batch = s.sim.layout == core::StateLayout::kCompact;
  s.k_batch = s.bare_loop_is_batch ? s.sim.m : s.k_micro;
  if (plan.spec == "adaptive") {
    s.adaptive_n = plan.n;
    s.adaptive_m = plan.m;
  } else {
    s.adaptive_n = std::min(plan.n, smoke ? (1U << 10) : (1U << 20));
    s.adaptive_m = 8ULL * s.adaptive_n;
  }
  s.shard_m = smoke ? (1ULL << 12) : (1ULL << 22);
  return s;
}

std::vector<std::uint32_t> random_bins(rng::Engine& gen, std::uint32_t n, std::uint64_t k) {
  std::vector<std::uint32_t> bins(k);
  for (auto& b : bins) b = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
  return bins;
}

void measure_rng(const Shape& s, rng::Engine& gen, Tracer& tracer) {
  std::uint64_t acc = 0;
  {
    ScopedSpan span(&tracer, "rng.word", 0);
    for (std::uint64_t k = 0; k < s.k_rng; ++k) acc ^= gen();
    span.set_count(s.k_rng);
  }
  {
    ScopedSpan span(&tracer, "rng.uniform_below", 0);
    for (std::uint64_t k = 0; k < s.k_rng; ++k) acc += rng::uniform_below(gen, s.n_compact);
    span.set_count(s.k_rng);
    span.attr("bound", s.n_compact);
  }
  g_sink = acc;
}

void measure_bin_state(const Plan& plan, const Shape& s, rng::Engine& gen, Tracer& tracer,
                       std::vector<std::string>& bad) {
  for (int rep = 0; rep < 3; ++rep) {
    std::unique_ptr<core::BinState> state;
    {
      ScopedSpan span(&tracer, "bin_state.construct", 0);
      state = std::make_unique<core::BinState>(plan.n, plan.layout);
      span.set_count(1);
      span.attr("bytes", static_cast<double>(plan.slab_bytes()));
    }
  }

  {
    const std::vector<std::uint32_t> bins = random_bins(gen, s.n_compact, s.k_micro);
    core::BinState state(s.n_compact, core::StateLayout::kCompact);
    {
      ScopedSpan span(&tracer, "bin_state.add.compact", 0);
      for (const std::uint32_t b : bins) state.add_ball(b);
      span.set_count(bins.size());
    }
    if (state.balls() != bins.size()) bad.emplace_back("layers: compact adds lost balls");
  }

  const std::vector<std::uint32_t> bins = random_bins(gen, s.n_wide, s.k_micro);
  core::BinState state(s.n_wide, core::StateLayout::kWide);
  {
    ScopedSpan span(&tracer, "bin_state.add.wide", 0);
    for (const std::uint32_t b : bins) state.add_ball(b);
    span.set_count(bins.size());
  }
  {
    ScopedSpan span(&tracer, "bin_state.remove.wide", 0);
    for (const std::uint32_t b : bins) state.remove_ball(b);
    span.set_count(bins.size());
  }
  if (state.balls() != 0) bad.emplace_back("layers: wide removes left balls behind");
}

void measure_rules(const Shape& s, rng::Engine& gen, Tracer& tracer,
                   std::vector<std::string>& bad) {
  {
    const auto rule = core::make_rule("greedy[2]", s.n_compact, s.k_micro);
    core::BinState state(s.n_compact, core::StateLayout::kCompact);
    rule->set_engine_exclusive(true);
    ScopedSpan span(&tracer, "rule.place_one.greedy2.compact", 0);
    for (std::uint64_t k = 0; k < s.k_micro; ++k) (void)rule->place_one(state, gen);
    span.set_count(s.k_micro);
  }
  {
    const auto rule = core::make_rule("greedy[2]", s.n_compact, s.k_batch);
    core::BinState state(s.n_compact, core::StateLayout::kCompact);
    rule->set_engine_exclusive(true);
    {
      ScopedSpan span(&tracer, "batch_kernel.place_batch", 0);
      rule->place_batch(state, s.k_batch, gen);
      span.set_count(s.k_batch);
      if (const core::BatchPlacer* kernel = rule->batch_kernel(); kernel != nullptr) {
        span.attr("fast_balls", static_cast<double>(kernel->fast_balls()));
        span.attr("fallback_balls", static_cast<double>(kernel->fallback_balls()));
      }
    }
    if (state.balls() != s.k_batch) bad.emplace_back("layers: place_batch lost balls");
  }
  {
    const auto rule = core::make_rule("adaptive", s.adaptive_n, s.adaptive_m);
    core::BinState state(s.adaptive_n, core::StateLayout::kWide);
    {
      ScopedSpan span(&tracer, "rule.place_one.adaptive.wide", 0);
      for (std::uint64_t k = 0; k < s.adaptive_m; ++k) (void)rule->place_one(state, gen);
      span.set_count(s.adaptive_m);
      span.attr("probes", static_cast<double>(rule->probes()));
    }
    const std::uint64_t cap = (s.adaptive_m + s.adaptive_n - 1) / s.adaptive_n + 1;
    if (state.max_load() > cap) bad.emplace_back("layers: adaptive exceeded ceil(m/n)+1");
    const std::vector<std::uint32_t> loads = state.copy_loads();
    ScopedSpan span(&tracer, "sim.compute_metrics", 0);
    const core::LoadMetrics metrics = core::compute_metrics(loads, state.balls());
    span.set_count(loads.size());
    g_sink = metrics.max;
  }
}

void measure_sim_replicate(const Shape& s, Tracer& tracer, std::vector<std::string>& bad) {
  ScopedSpan span(&tracer, "sim.run_replicate", 0);
  const sim::ReplicateRecord rec = sim::run_replicate(s.sim, 0);
  span.set_count(s.sim.m);
  span.attr("bare_loop_is_batch", s.bare_loop_is_batch ? 1.0 : 0.0);
  if (!rec.completed) bad.emplace_back("layers: isolated replicate did not complete");
}

void measure_dyn(const Plan& dp, bool smoke, std::uint64_t seed, rng::Engine& gen,
                 Tracer& tracer, std::vector<std::string>& bad) {
  const std::string workload_spec = "churn[" + std::to_string(dp.population) + "]";
  {
    const auto workload = dyn::make_workload(workload_spec, dp.n);
    dyn::WorkloadContext ctx;
    const std::uint64_t k = dp.warmup + dp.events;
    std::uint64_t acc = 0;
    ScopedSpan span(&tracer, "dyn.workload_next", 0);
    for (std::uint64_t e = 0; e < k; ++e) {
      const dyn::DynEvent ev = workload->next(gen, ctx);
      if (ev.kind == dyn::EventKind::kArrival) {
        ++ctx.balls;
      } else {
        --ctx.balls;
      }
      acc += ctx.balls;
    }
    span.set_count(k);
    g_sink = acc;
  }
  {
    // Fill to the churn population, then churn in blocks: pick a block of
    // uniform victims (outside the spans), remove them, place as many.
    const auto alloc = core::make_streaming_allocator(dp.spec, dp.n, 0, dp.layout);
    std::vector<std::uint32_t> live;
    live.reserve(dp.population);
    {
      ScopedSpan span(&tracer, "dyn.fill", 0);
      for (std::uint64_t b = 0; b < dp.population; ++b) live.push_back(alloc->place(gen));
      span.set_count(dp.population);
    }
    const std::uint64_t block = smoke ? 256 : 4096;
    std::vector<std::uint32_t> victims(block);
    for (std::uint64_t done = 0; done < dp.events / 2; done += block) {
      for (auto& v : victims) {
        const auto idx = static_cast<std::size_t>(rng::uniform_below(gen, live.size()));
        v = live[idx];
        live[idx] = live.back();
        live.pop_back();
      }
      {
        ScopedSpan span(&tracer, "dyn.remove", 0);
        for (const std::uint32_t v : victims) alloc->remove(v);
        span.set_count(block);
      }
      ScopedSpan span(&tracer, "dyn.place", 0);
      for (std::uint64_t b = 0; b < block; ++b) live.push_back(alloc->place(gen));
      span.set_count(block);
    }
    if (alloc->state().balls() != dp.population) {
      bad.emplace_back("layers: dyn churn did not conserve the population");
    }
  }
  const dyn::DynConfig cfg = dyn_config(dp, seed, false);
  ScopedSpan span(&tracer, "dyn.run_dynamic_replicate", 0);
  const dyn::DynReplicate rep = dyn::run_dynamic_replicate(cfg, 0);
  span.set_count(dp.warmup + dp.events);
  span.attr("arrivals", static_cast<double>(dp.warmup + dp.events / 2));
  span.attr("departures", static_cast<double>(dp.events / 2));
  if (rep.dropped_departures != 0) bad.emplace_back("layers: dyn dropped departures");
}

void measure_shards(const Shape& s, std::uint64_t seed, const Machine& machine,
                    Tracer& tracer, std::vector<std::string>& bad) {
  for (const std::uint32_t t : {1U, 2U, 4U}) {
    if (t > machine.nproc) break;
    sim::ExperimentConfig cfg = s.sim;
    cfg.protocol_spec = "shards[" + std::to_string(t) + "]:greedy[2]";
    cfg.layout = core::StateLayout::kCompact;
    cfg.n = s.n_compact;
    cfg.m = s.shard_m;
    cfg.seed = seed;
    cfg.obs.level = bbb::obs::ObsLevel::kCounters;
    ScopedSpan span(&tracer, "shard.run", 0);
    const sim::ReplicateRecord rec = sim::run_replicate(cfg, 0);
    span.set_count(cfg.m);
    span.attr("shards", t);
    span.attr("balls", static_cast<double>(rec.shard_counters.balls));
    span.attr("probes", static_cast<double>(rec.shard_counters.probes));
    span.attr("messages", static_cast<double>(rec.shard_counters.messages));
    span.attr("cross_shard_probes", static_cast<double>(rec.shard_counters.cross_shard_probes));
    span.attr("deferred_balls", static_cast<double>(rec.shard_counters.deferred_balls));
    if (!rec.completed || rec.max_load * cfg.n < static_cast<double>(cfg.m)) {
      bad.emplace_back("layers: shards[" + std::to_string(t) + "] run inconsistent");
    }
  }
}

}  // namespace

std::vector<std::string> measure_layers(const Plan& plan, const Plan& dyn_plan, bool smoke,
                                        std::uint64_t seed, const Machine& machine,
                                        Tracer& tracer) {
  std::vector<std::string> bad;
  const Shape s = shape_for(plan, smoke, rng::derive_seed(seed, 1000));
  rng::Engine gen = rng::SeedSequence(seed).engine(1001);
  measure_rng(s, gen, tracer);
  measure_bin_state(plan, s, gen, tracer, bad);
  measure_rules(s, gen, tracer, bad);
  measure_sim_replicate(s, tracer, bad);
  measure_dyn(dyn_plan, smoke, rng::derive_seed(seed, 1002), gen, tracer, bad);
  measure_shards(s, rng::derive_seed(seed, 1003), machine, tracer, bad);
  return bad;
}

}  // namespace perfbench
