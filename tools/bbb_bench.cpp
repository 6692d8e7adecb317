/// bbb_bench — the canonical perf-trajectory harness: run a pinned suite
/// of micro and end-to-end cases and emit one schema-versioned JSON record
/// (see docs/EXPERIMENTS.md, "Perf trajectory"), so every PR leaves a
/// comparable perf artifact (BENCH_PR5.json, BENCH_PR6.json, ...) instead
/// of anecdotal before/after numbers in commit messages.
///
///   $ bbb_bench --out=BENCH_PR5.json --label=PR5 --commit=$(git rev-parse HEAD)
///   $ bbb_bench --smoke=1 --out=bench_smoke.json     # CI: seconds, not minutes
///
/// The suite (ids are stable across PRs; sizes shrink under --smoke=1):
///   * state.*  — BinState mutator and metric-read costs, wide and compact
///     layouts (ns/op; the metric read is max+min+psi+lnPhi off the
///     incremental state);
///   * stream.* — streaming-allocator throughput per rule family at
///     giant n with the probe lookahead on (balls/s, plus the run's
///     max load and gap as a correctness echo);
///   * shard.*  — sharded-engine threads sweep, greedy[2] at t = 1/2/4/8
///     worker shards (balls/s; the record's machine.hardware_threads says
///     whether the sweep ran parallel or oversubscribed);
///   * dyn.*    — dynamic-engine churn steady state (events/s, psi/n).
///
/// Comparing trajectories: every record carries schema/label/commit/
/// machine; `python3 tools/compare_bench.py OLD.json NEW.json` prints the
/// per-case ratios. tools/validate_bench.py checks a record against the
/// schema (tools/bench_schema.json); CI runs it on every push.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/core/simd/batch_ops.hpp"
#include "bbb/dyn/engine.hpp"
#include "bbb/io/argparse.hpp"
#include "bbb/law/engine.hpp"
#include "bbb/obs/cli.hpp"
#include "bbb/obs/harvest.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/rng/xoshiro256.hpp"
#include "bbb/shard/engine.hpp"

namespace {

struct Case {
  std::string id;    // stable case name, e.g. "stream.greedy[2].wide"
  std::string kind;  // state_op | stream | dyn
  std::string layout;
  std::uint64_t n = 0;
  std::uint64_t work = 0;        // ops / balls / events measured
  double seconds = 0.0;          // wall time of the measured region
  double per_second = 0.0;       // work / seconds
  double ns_per_op = 0.0;        // 1e9 * seconds / work
  double check = 0.0;            // correctness echo (max load, psi/n, ...)
  std::string check_name;
  std::uint32_t shards = 0;      // shard cases only: worker-thread count
  // Stream cases harvest the core's passive counters after the timed
  // region (nine integer reads — never inside the measurement) and carry
  // them into the record's per-case "obs" block.
  bbb::obs::CoreCounters counters;
  bool has_counters = false;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Case finish(Case c, double t0, double t1, std::uint64_t work) {
  c.work = work;
  c.seconds = t1 - t0;
  c.per_second = c.seconds > 0 ? static_cast<double>(work) / c.seconds : 0.0;
  c.ns_per_op = work > 0 ? 1e9 * c.seconds / static_cast<double>(work) : 0.0;
  return c;
}

/// BinState mutator cost: m adds into pre-drawn bins, then m/2 removes.
/// Every 64th op targets bin 0, so that bin climbs through the compact
/// layout's 8-bit lane limit (255) early and its remaining ~m/128 ops run
/// on the overflow side-table — the one mutator path unique to compact —
/// and a final drain of that bin crosses the demotion boundary back to
/// the lane. A side-table regression therefore shows in this case's
/// trajectory, not just in the lane fast path.
Case bench_state_ops(bbb::core::StateLayout layout, std::uint32_t n,
                     std::uint64_t m, std::uint64_t seed) {
  Case c;
  c.id = "state.add_remove." + std::string(bbb::core::to_string(layout));
  c.kind = "state_op";
  c.layout = bbb::core::to_string(layout);
  c.n = n;
  bbb::rng::Engine gen(seed);
  std::vector<std::uint32_t> bins(static_cast<std::size_t>(m));
  for (std::size_t i = 0; i < bins.size(); ++i) {
    bins[i] = i % 64 == 0
                  ? 0
                  : static_cast<std::uint32_t>(bbb::rng::uniform_below(gen, n));
  }
  bbb::core::BinState state(n, layout);
  const double t0 = now_seconds();
  for (const std::uint32_t b : bins) state.add_ball(b);
  for (std::uint64_t i = 0; i < m / 2; ++i) state.remove_ball(bins[i]);
  // Drain the hot bin to zero: the demotion crossing (overflow -> lane)
  // plus a run of pure side-table removes.
  std::uint64_t drained = 0;
  while (state.load(0) > 0) {
    state.remove_ball(0);
    ++drained;
  }
  const double t1 = now_seconds();
  c = finish(std::move(c), t0, t1, m + m / 2 + drained);
  c.check = static_cast<double>(state.balls());
  c.check_name = "balls";
  return c;
}

/// Incremental metric read: max+min+psi+lnPhi per read, off a loaded state.
Case bench_metric_read(bbb::core::StateLayout layout, std::uint32_t n,
                       std::uint64_t reads, std::uint64_t seed) {
  Case c;
  c.id = "state.metric_read." + std::string(bbb::core::to_string(layout));
  c.kind = "state_op";
  c.layout = bbb::core::to_string(layout);
  c.n = n;
  bbb::rng::Engine gen(seed);
  bbb::core::BinState state(n, layout);
  for (std::uint64_t i = 0; i < 2ULL * n; ++i) {
    state.add_ball(static_cast<std::uint32_t>(bbb::rng::uniform_below(gen, n)));
  }
  double sink = 0.0;
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < reads; ++i) {
    sink += static_cast<double>(state.max_load()) - state.min_load() +
            state.psi() + state.log_phi();
  }
  const double t1 = now_seconds();
  c = finish(std::move(c), t0, t1, reads);
  c.check = sink / static_cast<double>(reads);
  c.check_name = "metric_sum";
  return c;
}

/// Streaming throughput of one rule family at giant n, lookahead on. The
/// timed region is one place_batch call: kernel-capable rules (one-choice,
/// greedy[2], left[2] on the compact layout) run the vectorized wave path,
/// every other family falls through to the per-ball loop — so the same
/// case id tracks whichever path that family actually ships with, and the
/// check echo (max_load) certifies the placements stayed bit-identical.
Case bench_stream(const std::string& spec, bbb::core::StateLayout layout,
                  std::uint32_t n, std::uint64_t m, std::uint64_t seed) {
  Case c;
  c.id = "stream." + spec + "." + std::string(bbb::core::to_string(layout));
  c.kind = "stream";
  c.layout = bbb::core::to_string(layout);
  c.n = n;
  bbb::rng::Engine gen(seed);
  bbb::core::StreamingAllocator alloc(bbb::core::BinState(n, layout),
                                      bbb::core::make_rule(spec, n, m));
  alloc.set_engine_exclusive(true);
  const double t0 = now_seconds();
  alloc.place_batch(m, gen);
  const double t1 = now_seconds();
  c = finish(std::move(c), t0, t1, m);
  c.check = static_cast<double>(alloc.state().max_load());
  c.check_name = "max_load";
  c.counters = bbb::obs::harvest(alloc);
  c.has_counters = true;
  return c;
}

/// Law-tier occupancy-profile generation rate: replicated one-choice
/// profile draws at m = n, reported in balls/s — directly comparable to
/// the stream.* cases, which pay per ball the hard way. The check echoes
/// the mean max load so a correctness drift (not just a perf drift) in
/// the sampler shows in the trajectory.
Case bench_law_profile(std::uint64_t n, std::uint32_t reps, std::uint64_t seed) {
  Case c;
  c.id = "law.one-choice.profile";
  c.kind = "law";
  c.layout = "none";
  c.n = n;
  bbb::law::LawConfig cfg;
  cfg.protocol_spec = "one-choice";
  cfg.m = n;
  cfg.n = n;
  cfg.replicates = reps;
  cfg.seed = seed;
  cfg.keep_records = false;
  // One worker, as the case has always measured: the trajectory compares
  // sampler speed, not the machine's core count.
  bbb::par::ThreadPool pool(1);
  const double t0 = now_seconds();
  const bbb::law::LawSummary s = bbb::law::run_law_experiment(cfg, pool);
  const double t1 = now_seconds();
  c = finish(std::move(c), t0, t1, cfg.m * reps);
  c.check = s.max_load.mean();
  c.check_name = "max_load";
  return c;
}

/// Sharded-engine threads sweep: the same greedy[2] workload at t = 1, 2,
/// 4, 8 shards (balls/s). t = 1 is the streaming fast path (comparable to
/// stream.greedy[2].wide); t > 1 pays the round-synchronized conflict
/// protocol. On a machine with fewer hardware threads than shards the
/// sweep records honest oversubscribed numbers — machine.hardware_threads
/// in the record says which regime a trajectory point came from.
Case bench_shard_sweep(std::uint32_t shards, std::uint32_t n, std::uint64_t m,
                       std::uint64_t seed) {
  Case c;
  c.id = "shard.greedy[2].t" + std::to_string(shards);
  c.kind = "shard";
  c.layout = "wide";
  c.n = n;
  c.shards = shards;
  bbb::shard::ShardOptions opt;
  opt.shards = shards;
  opt.m_hint = m;
  bbb::shard::ShardedAllocator engine("greedy[2]", n, opt);
  bbb::rng::Engine gen = bbb::rng::SeedSequence(seed).engine(0);
  const double t0 = now_seconds();
  engine.run(m, gen);
  const double t1 = now_seconds();
  c = finish(std::move(c), t0, t1, m);
  c.check = static_cast<double>(engine.max_load());
  c.check_name = "max_load";
  return c;
}

/// Dynamic churn steady state: one replicate, measured events per second.
Case bench_dyn_churn(const std::string& alloc_spec, std::uint32_t n,
                     std::uint64_t events, std::uint64_t seed) {
  Case c;
  c.id = "dyn.churn." + alloc_spec;
  c.kind = "dyn";
  c.layout = "wide";
  c.n = n;
  bbb::dyn::DynConfig cfg;
  cfg.allocator_spec = alloc_spec;
  cfg.workload_spec = "churn[" + std::to_string(4 * n) + "]";
  cfg.n = n;
  cfg.layout = bbb::core::StateLayout::kWide;  // the case's recorded layout
  cfg.warmup = events / 4;
  cfg.events = events;
  cfg.stride = 0;  // no snapshots: measure the engine, not the recorder
  cfg.replicates = 1;
  cfg.seed = seed;
  const double t0 = now_seconds();
  const bbb::dyn::DynReplicate rep = bbb::dyn::run_dynamic_replicate(cfg, 0);
  const double t1 = now_seconds();
  c = finish(std::move(c), t0, t1, cfg.warmup + cfg.events);
  c.check = rep.mean_psi / static_cast<double>(n);
  c.check_name = "psi_per_bin";
  return c;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      // Control characters (a newline smuggled into --label, say) must be
      // \u-escaped or the record is not JSON at all.
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(ch));
      out += buf;
    } else {
      out.push_back(ch);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bbb_bench",
                          "run the pinned perf suite and write one JSON record");
  args.add_flag("out", std::string("bench.json"), "output JSON path");
  args.add_flag("label", std::string(""), "trajectory label, e.g. PR5");
  args.add_flag("commit", std::string(""), "git commit hash to embed");
  args.add_flag("seed", std::uint64_t{42}, "seed for every case");
  args.add_flag("smoke", std::uint64_t{0},
                "1 = CI sizes (seconds); 0 = the pinned giant-scale sizes");
  bbb::obs::add_obs_flags(args);
  try {
    if (!args.parse(argc, argv)) return 0;
    const bool smoke = args.get_u64("smoke") != 0;
    const std::uint64_t seed = args.get_u64("seed");
    const bbb::obs::ObsConfig obs = bbb::obs::parse_obs_flags(args);
    if (obs.sink) {
      bbb::obs::JsonLine line("run_start", "bench");
      line.begin_object("config")
          .field("smoke", smoke)
          .field("seed", seed)
          .field("label", args.get_string("label"))
          .end_object();
      obs.sink->write(std::move(line));
    }

    // The pinned suite shapes. Smoke keeps every case id identical and
    // only shrinks sizes, so a smoke record validates against the same
    // schema (but is not comparable to a full record — `smoke` is part of
    // the config block).
    const std::uint32_t state_n = smoke ? (1u << 16) : (1u << 20);
    const std::uint64_t state_m = 4ULL * state_n;
    const std::uint64_t reads = smoke ? 200'000 : 2'000'000;
    const std::uint32_t stream_n = smoke ? (1u << 16) : (1u << 22);
    const std::uint64_t stream_m = 2ULL * stream_n;
    const std::uint32_t dyn_n = smoke ? (1u << 12) : (1u << 16);
    const std::uint64_t dyn_events = smoke ? (1ULL << 14) : (1ULL << 20);

    std::vector<Case> cases;
    using bbb::core::StateLayout;
    std::fprintf(stderr, "bbb_bench: state ops...\n");
    cases.push_back(bench_state_ops(StateLayout::kWide, state_n, state_m, seed));
    cases.push_back(bench_state_ops(StateLayout::kCompact, state_n, state_m, seed));
    cases.push_back(bench_metric_read(StateLayout::kWide, state_n, reads, seed));
    cases.push_back(bench_metric_read(StateLayout::kCompact, state_n, reads, seed));
    std::fprintf(stderr, "bbb_bench: streaming rule families...\n");
    for (const char* spec : {"one-choice", "greedy[2]", "left[2]", "memory[1,1]",
                             "threshold", "adaptive", "self-balancing"}) {
      cases.push_back(bench_stream(spec, StateLayout::kWide, stream_n, stream_m,
                                   seed));
    }
    cases.push_back(
        bench_stream("greedy[2]", StateLayout::kCompact, stream_n, stream_m, seed));
    std::fprintf(stderr, "bbb_bench: shard threads sweep...\n");
    for (const std::uint32_t t : {1u, 2u, 4u, 8u}) {
      cases.push_back(bench_shard_sweep(t, stream_n, stream_m, seed));
    }
    std::fprintf(stderr, "bbb_bench: dyn churn...\n");
    cases.push_back(bench_dyn_churn("greedy[2]", dyn_n, dyn_events, seed));
    cases.push_back(bench_dyn_churn("adaptive-net", dyn_n, dyn_events, seed));
    std::fprintf(stderr, "bbb_bench: law-tier profile sampling...\n");
    cases.push_back(bench_law_profile(smoke ? (1ULL << 16) : (1ULL << 22),
                                      smoke ? 8 : 32, seed));

    // -- JSON record ---------------------------------------------------------
    std::string out;
    out += "{\n";
    // v2 = v1 plus the per-case "obs" block on stream cases; v3 = v2 plus
    // machine.simd (the dispatch tier the streaming cases ran under) and
    // the optional core.batch.* obs keys; v4 = v3 plus the "shard" case
    // kind and the optional per-case "shards" worker count. Validators and
    // compare_bench.py accept all four, so old BENCH_*.json stay valid.
    out += "  \"schema\": \"bbb-bench-v4\",\n";
    out += "  \"label\": \"";
    json_escape_into(out, args.get_string("label"));
    out += "\",\n  \"commit\": \"";
    json_escape_into(out, args.get_string("commit"));
    out += "\",\n";
    out += "  \"generated_unix\": " + std::to_string(std::time(nullptr)) + ",\n";
    out += "  \"machine\": {\n";
    out += "    \"hardware_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) + ",\n";
#if defined(__VERSION__)
    out += "    \"compiler\": \"";
    json_escape_into(out, __VERSION__);
    out += "\",\n";
#else
    out += "    \"compiler\": \"unknown\",\n";
#endif
    out += "    \"pointer_bits\": " + std::to_string(8 * sizeof(void*)) + ",\n";
    // The tier the batch kernel actually dispatched to on this machine —
    // CPUID detection clamped by BBB_SIMD_MAX and the compiled backends —
    // so two records are known (in)comparable before reading any numbers.
    out += "    \"simd\": \"";
    out += bbb::core::simd::to_string(bbb::core::simd::active_simd_tier());
    out += "\"\n";
    out += "  },\n";
    out += "  \"config\": {\"smoke\": ";
    out += smoke ? "true" : "false";
    out += ", \"seed\": " + std::to_string(seed) + "},\n";
    out += "  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "    {\"id\": \"%s\", \"kind\": \"%s\", \"layout\": \"%s\", "
                    "\"n\": %" PRIu64 ", \"work\": %" PRIu64
                    ", \"seconds\": %.6f, \"per_second\": %.1f, "
                    "\"ns_per_op\": %.3f, \"check\": {\"%s\": %.6g}",
                    c.id.c_str(), c.kind.c_str(), c.layout.c_str(), c.n, c.work,
                    c.seconds, c.per_second, c.ns_per_op, c.check_name.c_str(),
                    c.check);
      out += buf;
      if (c.shards != 0) {
        out += ", \"shards\": " + std::to_string(c.shards);
      }
      if (c.has_counters) {
        // Fixed nine-key shape so the schema can require every field.
        std::snprintf(buf, sizeof(buf),
                      ", \"obs\": {\"probes\": %" PRIu64 ", \"balls_placed\": %" PRIu64
                      ", \"reallocations\": %" PRIu64 ", \"rounds\": %" PRIu64
                      ", \"lookahead_refills\": %" PRIu64
                      ", \"lookahead_discarded_words\": %" PRIu64
                      ", \"compact_promotions\": %" PRIu64
                      ", \"compact_demotions\": %" PRIu64
                      ", \"explode_fallbacks\": %" PRIu64,
                      c.counters.probes, c.counters.balls_placed,
                      c.counters.reallocations, c.counters.rounds,
                      c.counters.lookahead_refills,
                      c.counters.lookahead_discarded_words,
                      c.counters.compact_promotions, c.counters.compact_demotions,
                      c.counters.explode_fallbacks);
        out += buf;
        if (c.counters.batch_batches != 0) {
          // v3-only optional keys: present exactly when the batch kernel
          // engaged, so v2 consumers of kernel-less records see no change.
          std::snprintf(buf, sizeof(buf),
                        ", \"batch_batches\": %" PRIu64
                        ", \"batch_waves\": %" PRIu64
                        ", \"batch_fast_balls\": %" PRIu64
                        ", \"batch_fallback_balls\": %" PRIu64
                        ", \"batch_exact_balls\": %" PRIu64,
                        c.counters.batch_batches, c.counters.batch_waves,
                        c.counters.batch_fast_balls,
                        c.counters.batch_fallback_balls,
                        c.counters.batch_exact_balls);
          out += buf;
        }
        out += "}";
      }
      out += i + 1 < cases.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";

    const std::string path = args.get_string("out");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bbb_bench: cannot open %s for writing\n", path.c_str());
      return 1;
    }
    std::fputs(out.c_str(), f);
    std::fclose(f);
    std::printf("wrote %zu cases to %s\n", cases.size(), path.c_str());
    for (const Case& c : cases) {
      std::printf("  %-34s %12.0f /s  (%.1f ns/op, %s=%.4g)\n", c.id.c_str(),
                  c.per_second, c.ns_per_op, c.check_name.c_str(), c.check);
    }

    if (obs.counters_on()) {
      // Aggregate the stream cases' harvested counters into one snapshot
      // (the record already carries them per case).
      bbb::obs::CoreCounters total;
      for (const Case& c : cases) {
        if (c.has_counters) total.accumulate(c.counters);
      }
      bbb::obs::Snapshot snapshot;
      bbb::obs::fold_into(snapshot, total);
      bbb::obs::print_summary(snapshot, stderr);
      if (obs.sink) {
        for (const Case& c : cases) {
          bbb::obs::JsonLine line("case", "bench");
          line.field("id", c.id)
              .field("per_second", c.per_second)
              .field("ns_per_op", c.ns_per_op);
          if (c.has_counters) {
            line.begin_object("metrics")
                .field("probes", c.counters.probes)
                .field("balls_placed", c.counters.balls_placed)
                .field("lookahead_refills", c.counters.lookahead_refills)
                .field("compact_promotions", c.counters.compact_promotions)
                .end_object();
          }
          obs.sink->write(std::move(line));
        }
        bbb::obs::JsonLine line("summary", "bench");
        bbb::obs::append_metrics(line, snapshot);
        obs.sink->write(std::move(line));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbb_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
