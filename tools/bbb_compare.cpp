/// bbb_compare — run two protocols on identical (m, n) and report which one
/// wins on each metric, with bootstrap confidence intervals on the
/// difference of means so "wins" is statistically grounded.
///
///   $ bbb_compare --a=adaptive --b=threshold --m=1000000 --n=10000 --reps=20

#include <cstdio>
#include <string>
#include <vector>

#include "bbb/io/argparse.hpp"
#include "bbb/io/table.hpp"
#include "bbb/obs/cli.hpp"
#include "bbb/sim/runner.hpp"
#include "bbb/stats/bootstrap.hpp"

namespace {

struct MetricView {
  std::string name;
  std::vector<double> a;
  std::vector<double> b;
  int precision;
};

std::vector<double> column(const std::vector<bbb::sim::ReplicateRecord>& recs,
                           double bbb::sim::ReplicateRecord::* field) {
  std::vector<double> out;
  out.reserve(recs.size());
  for (const auto& r : recs) out.push_back(r.*field);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bbb_compare",
                          "head-to-head comparison of two protocol specs");
  args.add_flag("a", std::string("adaptive"), "first protocol spec");
  args.add_flag("b", std::string("threshold"), "second protocol spec");
  args.add_flag("m", std::uint64_t{100'000}, "balls");
  args.add_flag("n", std::uint64_t{10'000}, "bins");
  args.add_flag("reps", std::uint64_t{20}, "replicates");
  args.add_flag("seed", std::uint64_t{42}, "master seed");
  args.add_flag("threads", std::uint64_t{0}, "worker threads (0 = hardware)");
  args.add_flag("format", std::string("ascii"), "ascii|markdown|csv");
  bbb::obs::add_obs_flags(args);
  try {
    if (!args.parse(argc, argv)) return 0;

    bbb::sim::ExperimentConfig cfg;
    cfg.m = args.get_u64("m");
    cfg.n = args.get_u32("n");
    cfg.replicates = args.get_u32("reps");
    cfg.seed = args.get_u64("seed");
    cfg.obs = bbb::obs::parse_obs_flags(args);
    const auto format = bbb::io::parse_format(args.get_string("format"));

    bbb::par::ThreadPool pool(static_cast<std::size_t>(args.get_u64("threads")));
    cfg.protocol_spec = args.get_string("a");
    const auto sa = bbb::sim::run_experiment(cfg, pool);
    cfg.protocol_spec = args.get_string("b");
    const auto sb = bbb::sim::run_experiment(cfg, pool);

    const std::vector<MetricView> metrics = {
        {"probes", column(sa.records, &bbb::sim::ReplicateRecord::probes),
         column(sb.records, &bbb::sim::ReplicateRecord::probes), 1},
        {"max load", column(sa.records, &bbb::sim::ReplicateRecord::max_load),
         column(sb.records, &bbb::sim::ReplicateRecord::max_load), 2},
        {"gap", column(sa.records, &bbb::sim::ReplicateRecord::gap),
         column(sb.records, &bbb::sim::ReplicateRecord::gap), 2},
        {"psi", column(sa.records, &bbb::sim::ReplicateRecord::psi),
         column(sb.records, &bbb::sim::ReplicateRecord::psi), 1},
    };

    bbb::io::Table table({"metric", sa.protocol_name, sb.protocol_name,
                          "diff (a-b)", "diff ci95", "verdict"});
    table.set_title("m = " + std::to_string(cfg.m) + ", n = " + std::to_string(cfg.n) +
                    ", " + std::to_string(cfg.replicates) + " replicates each");
    for (const auto& mv : metrics) {
      // Bootstrap CI of the difference of means (paired by replicate index —
      // same seeds drive both protocols).
      std::vector<double> diffs;
      diffs.reserve(mv.a.size());
      for (std::size_t i = 0; i < mv.a.size(); ++i) diffs.push_back(mv.a[i] - mv.b[i]);
      const auto iv = bbb::stats::bootstrap_mean_ci(diffs, 2000, 0.95, cfg.seed);
      const char* verdict = iv.hi < 0 ? "a lower" : (iv.lo > 0 ? "b lower" : "tie");

      double mean_a = 0, mean_b = 0;
      for (double x : mv.a) mean_a += x;
      for (double x : mv.b) mean_b += x;
      mean_a /= static_cast<double>(mv.a.size());
      mean_b /= static_cast<double>(mv.b.size());

      table.begin_row();
      table.add_cell(mv.name);
      table.add_num(mean_a, mv.precision);
      table.add_num(mean_b, mv.precision);
      table.add_num(iv.point, mv.precision);
      // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict on
      // the equivalent "[" + std::to_string(...) + ... chain.
      std::string ci = "[";
      ci += std::to_string(iv.lo);
      ci += ", ";
      ci += std::to_string(iv.hi);
      ci += "]";
      table.add_cell(ci);
      table.add_cell(verdict);
    }
    std::fputs(table.render(format).c_str(), stdout);
    std::puts("verdict column: 'a lower'/'b lower' only when the 95% bootstrap CI");
    std::puts("of the paired difference excludes zero.");
    // One merged snapshot (counters sum across both runs) on stderr so
    // piped stdout stays clean.
    bbb::obs::Snapshot merged = sa.obs;
    merged.merge(sb.obs);
    bbb::obs::print_summary(merged, stderr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbb_compare: %s\n", e.what());
    return 1;
  }
  return 0;
}
