#include "bbb/dyn/engine.hpp"

#include <chrono>
#include <deque>
#include <stdexcept>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/par/parallel_for.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::dyn {

namespace {

[[nodiscard]] std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

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

}  // namespace

std::string DynConfig::describe() const {
  std::string desc =
      allocator_spec + " x " + workload_spec + " n=" + std::to_string(n) +
      " warmup=" + std::to_string(warmup) + " events=" + std::to_string(events) +
      " reps=" + std::to_string(replicates) + " seed=" + std::to_string(seed);
  if (layout != core::StateLayout::kWide) {
    desc += " layout=" + std::string(core::to_string(layout));
  }
  desc += obs.describe();
  return desc;
}

double DynSummary::psi_per_bin() const {
  return config.n > 0 ? psi.mean() / static_cast<double>(config.n) : 0.0;
}

DynReplicate run_dynamic_replicate(const DynConfig& config,
                                   std::uint32_t replicate_index) {
  if (config.events == 0) {
    throw std::invalid_argument("run_dynamic: events must be positive");
  }
  const auto alloc = core::make_streaming_allocator(config.allocator_spec, config.n,
                                                    config.m_hint, config.layout);
  const auto workload = make_workload(config.workload_spec, config.n);
  rng::Engine gen = rng::SeedSequence(config.seed).engine(replicate_index);

  // Eviction-based rules (cuckoo) relocate balls after placement, so a
  // recorded ball->bin assignment goes stale; fall back to bin-occupancy
  // victims for them regardless of what the workload asks for.
  const DepartSelect select = alloc->rule().stable_ball_identity()
                                  ? workload->depart_select()
                                  : DepartSelect::kUniformNonemptyBin;
  if (select == DepartSelect::kUniformNonemptyBin &&
      config.layout != core::StateLayout::kWide) {
    // Fail at config time, not mid-replicate: serving a uniformly random
    // busy bin needs the nonempty index only the wide layout maintains.
    // Name the actual culprit — a bin-serving workload, or a rule whose
    // unstable ball identity forces the bin-victim fallback.
    const std::string why =
        workload->depart_select() == DepartSelect::kUniformNonemptyBin
            ? "workload '" + config.workload_spec +
                  "' serves uniformly random busy bins"
            : "allocator '" + config.allocator_spec +
                  "' relocates balls after placement, forcing bin-occupancy "
                  "departure victims";
    throw std::invalid_argument(
        "run_dynamic: " + why +
        ", which the compact layout does not index; use layout=wide");
  }
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
  const auto wall_start = std::chrono::steady_clock::now();

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
      if (timing) rep.place_ns.record(elapsed_ns(place_start));
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
      if (timing) rep.remove_ns.record(elapsed_ns(remove_start));
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
    rep.wall_ns = elapsed_ns(wall_start);
  }
  return rep;
}

DynSummary run_dynamic(const DynConfig& config, par::ThreadPool& pool) {
  if (config.replicates == 0) {
    throw std::invalid_argument("run_dynamic: replicates must be positive");
  }
  if (config.events == 0) {
    throw std::invalid_argument("run_dynamic: events must be positive");
  }
  // Validate both specs (and capture canonical names) before spawning work.
  const std::string alloc_name =
      core::make_streaming_allocator(config.allocator_spec, config.n, config.m_hint,
                                     config.layout)
          ->name();
  const std::string workload_name = make_workload(config.workload_spec, config.n)->name();

  const bool obs_on = config.obs.counters_on();
  if (obs_on && config.obs.sink) {
    obs::JsonLine line("run_start", "dyn");
    line.begin_object("config")
        .field("describe", config.describe())
        .field("allocator", alloc_name)
        .field("workload", workload_name)
        .field("n", static_cast<std::uint64_t>(config.n))
        .field("warmup", config.warmup)
        .field("events", config.events)
        .field("replicates", static_cast<std::uint64_t>(config.replicates))
        .field("seed", config.seed)
        .field("layout", core::to_string(config.layout))
        .end_object();
    config.obs.sink->write(std::move(line));
  }

  DynSummary summary;
  summary.config = config;
  summary.allocator_name = alloc_name;
  summary.workload_name = workload_name;
  summary.tail.assign(static_cast<std::size_t>(config.tail_max) + 1,
                      stats::RunningStats{});
  summary.replicates = par::parallel_map<DynReplicate>(
      pool, config.replicates, [&config](std::uint64_t r) {
        return run_dynamic_replicate(config, static_cast<std::uint32_t>(r));
      });

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

  if (obs_on) {
    // Counters sum, per-replicate latency histograms merge losslessly —
    // in replicate order, so the snapshot is thread-count independent.
    obs::MetricsRegistry registry;
    obs::CoreCounters total;
    obs::LatencyHistogram& wall = registry.histogram("dyn.replicate.wall_ns");
    for (const DynReplicate& rep : summary.replicates) {
      total.accumulate(rep.counters);
      wall.record(rep.wall_ns);
    }
    if (config.obs.full_on()) {
      // The event histograms only exist at level full; registering them
      // empty at level counters would clutter the summary table.
      obs::LatencyHistogram& place = registry.histogram("dyn.event.place_latency_ns");
      obs::LatencyHistogram& remove =
          registry.histogram("dyn.event.remove_latency_ns");
      for (const DynReplicate& rep : summary.replicates) {
        place.merge(rep.place_ns);
        remove.merge(rep.remove_ns);
      }
    }
    obs::fold_into(registry, total);
    registry.add_counter("dyn.event.dropped_departures", summary.dropped_departures);
    registry.set_gauge("dyn.gauge.gap", summary.gap.mean());
    registry.set_gauge("dyn.gauge.psi", summary.psi.mean());
    summary.obs = registry.snapshot();

    if (config.obs.sink) {
      for (std::uint32_t r = 0; r < summary.replicates.size(); ++r) {
        const DynReplicate& rep = summary.replicates[r];
        obs::JsonLine line("replicate", "dyn");
        line.field("replicate", static_cast<std::uint64_t>(r))
            .begin_object("metrics")
            .field("probes", rep.counters.probes)
            .field("mean_gap", rep.mean_gap)
            .field("peak_max", static_cast<std::uint64_t>(rep.peak_max))
            .field("dropped_departures", rep.dropped_departures)
            .field("wall_ns", rep.wall_ns)
            .end_object();
        config.obs.sink->write(std::move(line));
      }
      obs::JsonLine line("summary", "dyn");
      obs::append_metrics(line, summary.obs);
      config.obs.sink->write(std::move(line));
    }
  }
  return summary;
}

DynSummary run_dynamic(const DynConfig& config) {
  par::ThreadPool pool;
  return run_dynamic(config, pool);
}

}  // namespace bbb::dyn
