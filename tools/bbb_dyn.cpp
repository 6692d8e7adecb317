/// bbb_dyn — the dynamic-workload driver: run any rule from the protocol
/// registry (the full batch vocabulary — greedy, left, memory, threshold,
/// adaptive variants, batched, self-balancing, cuckoo, ...) against any
/// workload generator, print steady-state metrics, the occupancy tail,
/// and optionally a snapshot trajectory CSV.
///
///   $ bbb_dyn --allocator=greedy[2] --workload=supermarket[90] --n=4096
///   $ bbb_dyn --allocator=memory[1,1] --workload='churn[32768]' --n=4096
///   $ bbb_dyn --allocator=threshold[2] --mhint=8192 --workload='bursty[95,10,5]'
///   $ bbb_dyn --list=1                      # print every spec string
///   $ bbb_dyn --csv=snapshots.csv ...       # replicate-0 trajectory dump

#include <cstdio>
#include <string>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/dyn/engine.hpp"
#include "bbb/io/argparse.hpp"
#include "bbb/io/csv.hpp"
#include "bbb/io/table.hpp"
#include "bbb/obs/cli.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bbb_dyn",
                          "run one dynamic (arrivals + departures) experiment");
  args.add_flag("allocator", std::string("adaptive-net"),
                "protocol registry spec (see --list=1)");
  args.add_flag("workload", std::string("supermarket[90]"),
                "workload spec (see --list=1)");
  args.add_flag("n", std::uint64_t{1024}, "bins");
  args.add_flag("mhint", std::uint64_t{0},
                "total-count hint for fixed-bound rules like threshold (0 = n)");
  args.add_flag("warmup", std::uint64_t{32768}, "burn-in events before measuring");
  args.add_flag("events", std::uint64_t{65536}, "measured events");
  args.add_flag("stride", std::uint64_t{1024}, "measured events between snapshots");
  args.add_flag("tail", std::uint64_t{12}, "track frac(load >= k) for k <= tail");
  args.add_flag("reps", std::uint64_t{8}, "replicates");
  args.add_flag("seed", std::uint64_t{42}, "master seed");
  args.add_flag("threads", std::uint64_t{0}, "worker threads (0 = hardware)");
  args.add_flag("format", std::string("ascii"), "ascii|markdown|csv");
  args.add_flag("list", std::uint64_t{0},
                "1 = print allocator and workload spec strings and exit");
  args.add_flag("csv", std::string(""), "dump replicate-0 snapshots to this file");
  args.add_flag("strict", std::uint64_t{0},
                "1 = exit nonzero (status 2) when any departure event arrived "
                "with an empty system (dropped_departures > 0)");
  bbb::obs::add_obs_flags(args);
  try {
    if (!args.parse(argc, argv)) return 0;

    if (args.get_u64("list") != 0) {
      std::puts("rules (every protocol registry spec):");
      for (const auto& s : bbb::core::protocol_specs()) {
        std::printf("  %s\n", s.c_str());
      }
      std::puts("workloads:");
      for (const auto& s : bbb::dyn::workload_specs()) std::printf("  %s\n", s.c_str());
      return 0;
    }

    bbb::dyn::DynConfig cfg;
    cfg.allocator_spec = args.get_string("allocator");
    cfg.workload_spec = args.get_string("workload");
    cfg.n = args.get_u32("n");
    cfg.m_hint = args.get_u64("mhint");
    cfg.warmup = args.get_u64("warmup");
    cfg.events = args.get_u64("events");
    cfg.stride = args.get_u64("stride");
    cfg.tail_max = args.get_u32("tail");
    cfg.replicates = args.get_u32("reps");
    cfg.seed = args.get_u64("seed");
    cfg.obs = bbb::obs::parse_obs_flags(args);
    const auto format = bbb::io::parse_format(args.get_string("format"));

    bbb::par::ThreadPool pool(static_cast<std::size_t>(args.get_u64("threads")));
    const bbb::dyn::DynSummary s = bbb::dyn::run_dynamic(cfg, pool);

    bbb::io::Table table({"metric", "mean", "stddev", "min", "max", "ci95"});
    table.set_title(s.config.describe());  // names the resolved layout
    const auto add = [&table](const std::string& name,
                              const bbb::stats::RunningStats& st, int prec) {
      table.begin_row();
      table.add_cell(name);
      table.add_num(st.mean(), prec);
      table.add_num(st.stddev(), prec);
      table.add_num(st.min(), prec);
      table.add_num(st.max(), prec);
      table.add_num(st.ci95_halfwidth(), prec);
    };
    add("balls in system", s.balls, 1);
    add("psi", s.psi, 1);
    add("gap", s.gap, 2);
    add("max load", s.max_load, 2);
    add("peak max load", s.peak_max, 2);
    add("probes/ball", s.probes_per_ball, 4);
    std::fputs(table.render(format).c_str(), stdout);
    std::printf("steady-state psi/n = %.3f\n\n", s.psi_per_bin());
    if (s.dropped_departures > 0) {
      std::printf("WARNING: %llu departure events arrived with an empty system "
                  "(broken generator?)\n\n",
                  static_cast<unsigned long long>(s.dropped_departures));
    }

    bbb::io::Table tail({"k", "frac(load >= k)", "ci95"});
    tail.set_title("occupancy tail (averaged over the measured window)");
    for (std::size_t k = 0; k < s.tail.size(); ++k) {
      tail.begin_row();
      tail.add_int(static_cast<std::int64_t>(k));
      tail.add_num(s.tail[k].mean(), 6);
      tail.add_num(s.tail[k].ci95_halfwidth(), 6);
    }
    std::fputs(tail.render(format).c_str(), stdout);

    const std::string csv_path = args.get_string("csv");
    if (!csv_path.empty() && !s.replicates.empty()) {
      bbb::io::CsvWriter csv(csv_path, {"time", "events", "balls", "probes",
                                        "max_load", "min_load", "psi", "log_phi"});
      for (const auto& snap : s.replicates.front().snapshots) {
        csv.write_row(std::vector<double>{
            snap.time, static_cast<double>(snap.events),
            static_cast<double>(snap.balls), static_cast<double>(snap.probes),
            static_cast<double>(snap.max_load), static_cast<double>(snap.min_load),
            snap.psi, snap.log_phi});
      }
      std::printf("wrote %zu snapshot rows (replicate 0) to %s\n", csv.rows(),
                  csv_path.c_str());
    }

    // Metric summary on stderr so piped stdout (csv/markdown) stays clean.
    bbb::obs::print_summary(s.obs, stderr);
    if (args.get_u64("strict") != 0 && s.dropped_departures > 0) {
      std::fprintf(stderr,
                   "bbb_dyn: --strict: %llu dropped departure(s) — failing\n",
                   static_cast<unsigned long long>(s.dropped_departures));
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbb_dyn: %s\n", e.what());
    return 1;
  }
  return 0;
}
