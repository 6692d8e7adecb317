#include "bbb/sim/runner.hpp"

#include <chrono>
#include <stdexcept>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/obs/run.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/shard/engine.hpp"

namespace bbb::sim {

double RunSummary::probes_per_ball() const {
  return config.m > 0 ? probes.mean() / static_cast<double>(config.m) : 0.0;
}

namespace {

/// The replicate path of an unsharded spec, for either (resolved) layout:
/// one streaming allocator bound from the run's Protocol, one run_batch
/// call (the rule's batch hook: place_batch + finalize, or batched[k]'s
/// LW rounds on a wide state), then the
/// incremental metrics read off the state — no O(n) rescan, so compact
/// n = 2^30 fits in ~1 GiB.
ReplicateRecord run_streaming_replicate(const core::Protocol& protocol,
                                        const ExperimentConfig& config,
                                        std::uint32_t replicate_index) {
  const auto alloc = protocol.bind(config.n, config.m, *config.layout);
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);
  alloc->set_engine_exclusive(true);
  if (config.obs.full_on() && config.obs.sink && config.obs.heartbeat_seconds > 0) {
    // Heartbeats observe (balls done, current gap) between place_batch
    // chunks and never touch `gen`, so placements are unchanged; the
    // default path passes no observer and places the whole batch at once.
    obs::Heartbeat heartbeat(config.obs.heartbeat_seconds);
    alloc->run_batch(config.m, gen, [&](std::uint64_t done) {
      if (!heartbeat.due()) return;
      obs::JsonLine line("heartbeat", "sim");
      line.field("replicate", static_cast<std::uint64_t>(replicate_index))
          .field("done", done)
          .field("total", config.m)
          .field("gap", static_cast<std::uint64_t>(alloc->state().gap()));
      config.obs.sink->write(std::move(line));
    });
  } else {
    alloc->run_batch(config.m, gen);
  }

  const core::BinState& state = alloc->state();
  const core::PlacementRule& rule = alloc->rule();
  ReplicateRecord rec;
  rec.probes = static_cast<double>(rule.probes());
  rec.reallocations = static_cast<double>(rule.reallocations());
  rec.rounds = static_cast<double>(rule.rounds());
  rec.completed = rule.completed();
  rec.max_load = state.max_load();
  rec.min_load = state.min_load();
  rec.gap = state.gap();
  rec.psi = state.psi();
  rec.log_phi = state.log_phi();
  if (config.obs.counters_on()) {
    rec.counters = obs::harvest(*alloc);
  }
  return rec;
}

/// The sharded replicate path, for `shards[t]:` specs in either layout:
/// run the multi-core engine of shard/engine.hpp and read the merged
/// incremental metrics off the per-shard states — no O(n) load
/// materialization, unlike Protocol::run — and harvest the shard counters
/// (cross-shard traffic, deferrals, inbox entries). Placements are
/// Protocol::run's: same derived engine, same consumption.
ReplicateRecord run_sharded_replicate(const core::Protocol& protocol,
                                      const ExperimentConfig& config,
                                      std::uint32_t replicate_index) {
  const auto engine = protocol.bind_sharded(config.n, config.m, *config.layout);
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);
  engine->run(config.m, gen);

  ReplicateRecord rec;
  rec.probes = static_cast<double>(engine->probes());
  rec.max_load = engine->max_load();
  rec.min_load = engine->min_load();
  rec.gap = engine->gap();
  rec.psi = engine->psi();
  rec.log_phi = engine->log_phi();
  if (const core::PlacementRule* rule = engine->rule(); rule != nullptr) {
    rec.reallocations = static_cast<double>(rule->reallocations());
    rec.rounds = static_cast<double>(rule->rounds());
    rec.completed = rule->completed();
  } else {
    rec.rounds = static_cast<double>(engine->sync_rounds());
  }
  if (config.obs.counters_on()) {
    if (const core::PlacementRule* rule = engine->rule(); rule != nullptr) {
      rec.counters = obs::harvest(*rule, &engine->shard_state(0));
    } else {
      rec.counters.probes = engine->probes();
      rec.counters.balls_placed = engine->balls();
      rec.counters.rounds = engine->sync_rounds();
    }
    rec.shard_counters = engine->counters();
  }
  return rec;
}

/// `config` with its layout resolved against the run's Protocol.
ExperimentConfig resolve_layout(const ExperimentConfig& config,
                                const core::Protocol& protocol) {
  ExperimentConfig run = config;
  if (!run.layout) run.layout = protocol.preferred_layout(config.n, config.m);
  return run;
}

ReplicateRecord run_replicate(const core::Protocol& protocol, const ExperimentConfig& run,
                              std::uint32_t replicate_index) {
  return protocol.shards() != 0 ? run_sharded_replicate(protocol, run, replicate_index)
                                : run_streaming_replicate(protocol, run, replicate_index);
}

}  // namespace

ReplicateRecord run_replicate(const ExperimentConfig& config,
                              std::uint32_t replicate_index) {
  const auto protocol = core::make_protocol(config.protocol_spec);
  return run_replicate(*protocol, resolve_layout(config, *protocol), replicate_index);
}

RunSummary run_experiment(const ExperimentConfig& config, par::ThreadPool& pool) {
  if (config.replicates == 0) {
    throw std::invalid_argument("run_experiment: replicates must be positive");
  }
  // Parse the spec once, before spawning work: every replicate binds from
  // this one Protocol, and every replicate, the run_start trace and the
  // returned summary name the same layout.
  const auto protocol = core::make_protocol(config.protocol_spec);
  const std::string& canonical = protocol->name();
  const ExperimentConfig run = resolve_layout(config, *protocol);

  const obs::RunTrace trace(config.obs, "sim", [&](obs::JsonLine& line) {
    line.field("describe", run.describe())
        .field("protocol", canonical)
        .field("m", config.m)
        .field("n", static_cast<std::uint64_t>(config.n))
        .field("replicates", static_cast<std::uint64_t>(config.replicates))
        .field("seed", config.seed)
        .field("layout", core::to_string(*run.layout));
  });

  RunSummary summary;
  summary.config = run;
  summary.protocol_name = canonical;
  summary.records = obs::run_replicates(
      pool, config.replicates, config.obs,
      [&](std::uint32_t r) { return run_replicate(*protocol, run, r); });

  // Fold in replicate order: summaries are independent of scheduling.
  const auto fold_start = std::chrono::steady_clock::now();
  for (const ReplicateRecord& rec : summary.records) {
    summary.probes.add(rec.probes);
    summary.max_load.add(rec.max_load);
    summary.min_load.add(rec.min_load);
    summary.gap.add(rec.gap);
    summary.psi.add(rec.psi);
    summary.log_phi.add(rec.log_phi);
    summary.reallocations.add(rec.reallocations);
    summary.rounds.add(rec.rounds);
    if (!rec.completed) ++summary.failures;
  }
  const std::uint64_t fold_ns = obs::elapsed_ns(fold_start);

  if (config.obs.counters_on()) {
    summary.obs = obs::fold_replicates("sim", summary.records);
    shard::ShardCounters shard_total;
    for (const ReplicateRecord& rec : summary.records) shard_total += rec.shard_counters;
    obs::fold_into(summary.obs, shard_total);
    summary.obs.set_gauge("sim.fold.wall_ns", static_cast<double>(fold_ns));
    trace.finish(
        summary.records,
        [](obs::JsonLine& line, const ReplicateRecord& rec) {
          line.field("probes", rec.counters.probes)
              .field("max_load", rec.max_load)
              .field("gap", rec.gap)
              .field("wall_ns", rec.wall_ns)
              .field("completed", rec.completed);
        },
        summary.obs);
  }

  if (!config.keep_records) {
    summary.records.clear();
    summary.records.shrink_to_fit();
  }
  return summary;
}

RunSummary run_experiment(const ExperimentConfig& config) {
  par::ThreadPool pool;
  return run_experiment(config, pool);
}

}  // namespace bbb::sim
