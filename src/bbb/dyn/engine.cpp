#include "bbb/dyn/engine.hpp"

#include <chrono>
#include <deque>
#include <stdexcept>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/obs/run.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::dyn {

namespace {

/// Live balls in arrival order: O(1) push, O(1) uniform victim (swap with
/// the back), O(1) oldest victim (pop the front). Only maintained for
/// ball-selecting workloads; supermarket departures sample a nonempty bin
/// from the allocator state instead.
class BallRegistry {
 public:
  void push(std::uint32_t bin) { live_.push_back(bin); }

  std::uint32_t pop_uniform(rng::Engine& gen) {
    const auto idx =
        static_cast<std::size_t>(rng::uniform_below(gen, live_.size()));
    const std::uint32_t bin = live_[idx];
    live_[idx] = live_.back();
    live_.pop_back();
    return bin;
  }

  std::uint32_t pop_oldest() {
    const std::uint32_t bin = live_.front();
    live_.pop_front();
    return bin;
  }

  [[nodiscard]] std::size_t size() const noexcept { return live_.size(); }

 private:
  std::deque<std::uint32_t> live_;
};

/// Where departures pick their victim. Eviction-based rules (cuckoo)
/// relocate balls after placement, so a recorded ball->bin assignment goes
/// stale: they take bin-occupancy victims whatever the workload asks for.
DepartSelect departure_select(const Workload& workload, const core::Protocol& protocol) {
  return protocol.stable_ball_identity() ? workload.depart_select()
                                         : DepartSelect::kUniformNonemptyBin;
}

/// The spec-independent domain checks both entry points run first.
void check_run_shape(const DynConfig& config) {
  if (config.events == 0) {
    throw std::invalid_argument("run_dynamic: events must be positive");
  }
  if (config.tail_max > DynConfig::kMaxTail) {
    throw std::invalid_argument("run_dynamic: tail " + std::to_string(config.tail_max) +
                                " exceeds the maximum " +
                                std::to_string(DynConfig::kMaxTail));
  }
}

/// `config` with its layout resolved against the run's Protocol: the
/// pinned one, or the derived one.
DynConfig resolve_layout(const DynConfig& config, const core::Protocol& protocol) {
  DynConfig run = config;
  if (run.layout) return run;
  const auto workload = make_workload(config.workload_spec, config.n);
  if (departure_select(*workload, protocol) == DepartSelect::kUniformNonemptyBin) {
    run.layout = core::StateLayout::kWide;  // sample_nonempty reads the wide index
  } else {
    run.layout = protocol.preferred_layout(config.n, workload->steady_balls());
  }
  return run;
}

}  // namespace

core::StateLayout DynConfig::resolved_layout() const {
  if (layout) return *layout;
  return *resolve_layout(*this, *core::make_protocol(allocator_spec)).layout;
}

std::string DynConfig::describe() const {
  std::string desc =
      allocator_spec + " x " + workload_spec + " n=" + std::to_string(n) +
      " warmup=" + std::to_string(warmup) + " events=" + std::to_string(events) +
      " reps=" + std::to_string(replicates) + " seed=" + std::to_string(seed);
  if (layout) desc += " layout=" + std::string(core::to_string(*layout));
  desc += obs.describe();
  return desc;
}

double DynSummary::psi_per_bin() const {
  return config.n > 0 ? psi.mean() / static_cast<double>(config.n) : 0.0;
}

namespace {

/// One replicate of a run whose layout is resolved: the allocator is bound
/// from the run's one Protocol.
DynReplicate run_dynamic_replicate(const core::Protocol& protocol,
                                   const DynConfig& config,
                                   std::uint32_t replicate_index) {
  const auto alloc = protocol.bind(config.n, config.m_hint, *config.layout);
  const auto workload = make_workload(config.workload_spec, config.n);
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);

  const DepartSelect select = departure_select(*workload, protocol);
  const bool track_balls = select != DepartSelect::kUniformNonemptyBin;
  // Atomic weighted arrivals (weighted:chains): the whole chain lands in
  // one bin via place_one(state, w, gen) when the rule can commit it
  // atomically; rules without supports_weights() keep the unit-explode
  // fallback below.
  const bool atomic_weights =
      workload->atomic_arrivals() && alloc->rule().supports_weights();
  BallRegistry registry;

  DynReplicate rep;
  rep.tail.assign(static_cast<std::size_t>(config.tail_max) + 1, 0.0);
  const std::uint64_t stride = config.stride == 0 ? config.events : config.stride;
  rep.snapshots.reserve(static_cast<std::size_t>(config.events / stride) + 1);

  std::uint64_t probes_at_start = 0;
  std::uint64_t placed_at_start = 0;
  std::vector<double> tail_sum(rep.tail.size(), 0.0);
  double balls_sum = 0.0, psi_sum = 0.0, gap_sum = 0.0, max_sum = 0.0;
  double weight_sum = 0.0;
  double prev_time = 0.0;

  // Per-event timing only at obs level full: dyn events are microsecond-
  // scale (registry + metric bookkeeping per event), so two extra clock
  // reads behind this predictable branch are proportionate here in a way
  // they would not be in the nanosecond batch placement loop. The clock
  // reads never touch `gen`: placements stay bit-for-bit identical.
  const bool timing = config.obs.full_on();
  const bool heartbeats =
      config.obs.full_on() && config.obs.sink && config.obs.heartbeat_seconds > 0;
  obs::Heartbeat heartbeat(config.obs.heartbeat_seconds);

  const std::uint64_t total_events = config.warmup + config.events;
  for (std::uint64_t e = 1; e <= total_events; ++e) {
    const WorkloadContext ctx{alloc->state().balls(), alloc->state().nonempty_bins()};
    const DynEvent ev = workload->next(gen, ctx);

    // Time-weighted steady-state averages: the state produced by event
    // e - 1 was held for ev.time - prev_time. Event-counting averages would
    // sample the embedded jump chain instead, which over-weights
    // high-occupancy states for the continuous-time workloads (the total
    // event rate grows with occupancy); weighting by the holding time
    // recovers the time-stationary quantities the fixed-point predictions
    // describe.
    if (e > config.warmup) {
      const double weight = ev.time - prev_time;
      weight_sum += weight;
      const core::BinState& state = alloc->state();
      balls_sum += weight * static_cast<double>(state.balls());
      psi_sum += weight * state.psi();
      gap_sum += weight * static_cast<double>(state.gap());
      max_sum += weight * static_cast<double>(state.max_load());
      if (state.max_load() > rep.peak_max) rep.peak_max = state.max_load();
      const auto& levels = state.level_counts();
      // count(load >= k) = n - count(load < k): one prefix sum over the
      // first tail_max levels, O(tail_max) per event regardless of how
      // high the loads have ever been.
      std::uint64_t below = 0;
      for (std::size_t k = 0; k < tail_sum.size(); ++k) {
        tail_sum[k] += weight * static_cast<double>(config.n - below) /
                       static_cast<double>(config.n);
        if (k < levels.size()) below += levels[k];
      }
    }
    prev_time = ev.time;

    if (ev.kind == EventKind::kArrival) {
      const auto place_start = timing ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point{};
      if (atomic_weights && ev.weight > 1) {
        const std::uint32_t bin = alloc->place_weighted(ev.weight, gen);
        // Departures are still per unit ball: register each chain link.
        if (track_balls) {
          for (std::uint32_t w = 0; w < ev.weight; ++w) registry.push(bin);
        }
      } else {
        for (std::uint32_t w = 0; w < ev.weight; ++w) {
          const std::uint32_t bin = alloc->place(gen);
          if (track_balls) registry.push(bin);
        }
      }
      if (timing) rep.place_ns.record(obs::elapsed_ns(place_start));
    } else if (ctx.balls > 0) {
      const auto remove_start = timing ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point{};
      std::uint32_t bin = 0;
      switch (select) {
        case DepartSelect::kUniformBall:
          bin = registry.pop_uniform(gen);
          break;
        case DepartSelect::kOldestBall:
          bin = registry.pop_oldest();
          break;
        case DepartSelect::kUniformNonemptyBin:
          bin = alloc->state().sample_nonempty(gen);
          break;
      }
      alloc->remove(bin);
      if (timing) rep.remove_ns.record(obs::elapsed_ns(remove_start));
    } else {
      // The shipped generators never emit a departure when the system is
      // empty (that clock has rate zero); count instead of silently
      // swallowing so a broken custom generator is visible — the event
      // still advanced the clock and consumed a measured slot.
      ++rep.dropped_departures;
    }

    if (heartbeats && (e & 0xFFF) == 0 && heartbeat.due()) {
      // Wall-clock progress signal for long churn runs (warmup included —
      // that is exactly when a giant run looks hung). Observational only.
      const core::BinState& state = alloc->state();
      obs::JsonLine line("heartbeat", "dyn");
      line.field("replicate", static_cast<std::uint64_t>(replicate_index))
          .field("done", e)
          .field("total", total_events)
          .field("balls", state.balls())
          .field("gap", static_cast<std::uint64_t>(state.gap()));
      config.obs.sink->write(std::move(line));
    }

    if (e == config.warmup) {
      probes_at_start = alloc->probes();
      placed_at_start = alloc->total_placed();
    }
    if (e <= config.warmup) continue;

    const core::BinState& state = alloc->state();
    const std::uint64_t measured = e - config.warmup;
    if (measured % stride == 0 || measured == config.events) {
      DynSnapshot snap;
      snap.time = ev.time;
      snap.events = measured;
      snap.balls = state.balls();
      snap.probes = alloc->probes();
      snap.max_load = state.max_load();
      snap.min_load = state.min_load();
      snap.psi = state.psi();
      snap.log_phi = state.log_phi();
      if (rep.snapshots.empty() || rep.snapshots.back().events != measured) {
        rep.snapshots.push_back(snap);
      }
    }
  }

  // Workload clocks strictly increase, so the measured window has positive
  // total weight whenever events >= 1.
  const double window = weight_sum;
  rep.mean_balls = balls_sum / window;
  rep.mean_psi = psi_sum / window;
  rep.mean_gap = gap_sum / window;
  rep.mean_max = max_sum / window;
  for (std::size_t k = 0; k < rep.tail.size(); ++k) rep.tail[k] = tail_sum[k] / window;
  const std::uint64_t placed = alloc->total_placed() - placed_at_start;
  rep.probes_per_ball =
      placed > 0
          ? static_cast<double>(alloc->probes() - probes_at_start) /
                static_cast<double>(placed)
          : 0.0;
  if (config.obs.counters_on()) {
    rep.counters = obs::harvest(*alloc);
  }
  return rep;
}

}  // namespace

DynReplicate run_dynamic_replicate(const DynConfig& config,
                                   std::uint32_t replicate_index) {
  check_run_shape(config);
  const auto protocol = core::make_protocol(config.allocator_spec);
  return run_dynamic_replicate(*protocol, resolve_layout(config, *protocol),
                               replicate_index);
}

DynSummary run_dynamic(const DynConfig& config, par::ThreadPool& pool) {
  if (config.replicates == 0) {
    throw std::invalid_argument("run_dynamic: replicates must be positive");
  }
  check_run_shape(config);
  // Parse both specs (and capture canonical names) before spawning work,
  // and resolve the layout once: every replicate binds from this one
  // Protocol, and every replicate, the run_start trace and the returned
  // summary name the same layout.
  const auto protocol = core::make_protocol(config.allocator_spec);
  const std::string& alloc_name = protocol->name();
  const DynConfig run = resolve_layout(config, *protocol);
  const std::string workload_name = make_workload(run.workload_spec, run.n)->name();

  const obs::RunTrace trace(config.obs, "dyn", [&](obs::JsonLine& line) {
    line.field("describe", run.describe())
        .field("allocator", alloc_name)
        .field("workload", workload_name)
        .field("n", static_cast<std::uint64_t>(config.n))
        .field("warmup", config.warmup)
        .field("events", config.events)
        .field("replicates", static_cast<std::uint64_t>(config.replicates))
        .field("seed", config.seed)
        .field("layout", core::to_string(*run.layout));
  });

  DynSummary summary;
  summary.config = run;
  summary.allocator_name = alloc_name;
  summary.workload_name = workload_name;
  summary.tail.assign(static_cast<std::size_t>(config.tail_max) + 1,
                      stats::RunningStats{});
  summary.replicates = obs::run_replicates(
      pool, config.replicates, config.obs,
      [&](std::uint32_t r) { return run_dynamic_replicate(*protocol, run, r); });

  // Fold in replicate order: summaries are independent of scheduling.
  for (const DynReplicate& rep : summary.replicates) {
    summary.balls.add(rep.mean_balls);
    summary.psi.add(rep.mean_psi);
    summary.gap.add(rep.mean_gap);
    summary.max_load.add(rep.mean_max);
    summary.peak_max.add(static_cast<double>(rep.peak_max));
    summary.probes_per_ball.add(rep.probes_per_ball);
    summary.dropped_departures += rep.dropped_departures;
    for (std::size_t k = 0; k < summary.tail.size() && k < rep.tail.size(); ++k) {
      summary.tail[k].add(rep.tail[k]);
    }
  }

  if (config.obs.counters_on()) {
    summary.obs = obs::fold_replicates("dyn", summary.replicates);
    if (config.obs.full_on()) {
      // The event histograms only exist at level full; registering them
      // empty at level counters would clutter the summary table.
      for (const DynReplicate& rep : summary.replicates) {
        summary.obs.add_histogram("dyn.event.place_latency_ns", rep.place_ns);
        summary.obs.add_histogram("dyn.event.remove_latency_ns", rep.remove_ns);
      }
    }
    summary.obs.add_counter("dyn.event.dropped_departures", summary.dropped_departures);
    summary.obs.set_gauge("dyn.gauge.gap", summary.gap.mean());
    summary.obs.set_gauge("dyn.gauge.psi", summary.psi.mean());
    trace.finish(
        summary.replicates,
        [](obs::JsonLine& line, const DynReplicate& rep) {
          line.field("probes", rep.counters.probes)
              .field("mean_gap", rep.mean_gap)
              .field("peak_max", static_cast<std::uint64_t>(rep.peak_max))
              .field("dropped_departures", rep.dropped_departures)
              .field("wall_ns", rep.wall_ns);
        },
        summary.obs);
  }
  return summary;
}

DynSummary run_dynamic(const DynConfig& config) {
  par::ThreadPool pool;
  return run_dynamic(config, pool);
}

}  // namespace bbb::dyn
