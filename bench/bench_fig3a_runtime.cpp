/// bench_fig3a_runtime — reproduces Figure 3(a): average allocation time of
/// adaptive and threshold as m grows, n fixed.
///
/// The paper plots m = 2..10 x 10^5 (x-axis m*10^-4 from 20 to 100),
/// averaged over 100 simulations; the paper's text fixes neither n nor the
/// RNG, we use n = 10^4 (see DESIGN.md) and default to 20 replicates for
/// bench-suite runtime (use --reps=100 for the paper's setting).
///
/// Expected shape: threshold's curve converges to m from above (Theorem
/// 4.1); adaptive's converges to a small constant times m (Theorem 3.1).
///
///   $ ./bench_fig3a_runtime [--n=10000] [--reps=20]

#include "bench_common.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_fig3a_runtime",
                          "Figure 3(a): average allocation time vs m");
  args.add_flag("n", std::uint64_t{10'000}, "bins (paper does not state; see DESIGN.md)");
  args.add_flag("m-min", std::uint64_t{100'000}, "smallest m");
  args.add_flag("m-max", std::uint64_t{1'000'000}, "largest m");
  args.add_flag("m-step", std::uint64_t{100'000}, "m increment");
  bbb::bench::add_common_flags(args, 20);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n = args.get_u32("n");

  bbb::bench::print_header(
      "Figure 3(a) (SPAA'13)",
      "average runtime: threshold -> m; adaptive -> (small constant) * m.");

  bbb::io::Table table({"m*1e-4", "threshold probes*1e-4", "thr/m", "thr ci95",
                        "adaptive probes*1e-4", "ada/m", "ada ci95"});
  table.set_title("n = " + std::to_string(n) + ", " + std::to_string(flags.reps) +
                  " replicates per point (paper: 100)");

  bbb::par::ThreadPool pool(flags.threads);
  for (std::uint64_t m = args.get_u64("m-min"); m <= args.get_u64("m-max");
       m += args.get_u64("m-step")) {
    const auto th = bbb::bench::run_cell("threshold", m, n, flags, pool);
    const auto ad = bbb::bench::run_cell("adaptive", m, n, flags, pool);
    table.begin_row();
    table.add_num(static_cast<double>(m) * 1e-4, 0);
    table.add_num(th.probes.mean() * 1e-4, 2);
    table.add_num(th.probes_per_ball(), 4);
    table.add_num(th.probes.ci95_halfwidth() * 1e-4, 2);
    table.add_num(ad.probes.mean() * 1e-4, 2);
    table.add_num(ad.probes_per_ball(), 4);
    table.add_num(ad.probes.ci95_halfwidth() * 1e-4, 2);
  }
  std::fputs(table.render(flags.format).c_str(), stdout);
  std::puts("\nexpected shape: thr/m column -> 1.00x from above; ada/m column");
  std::puts("flat at a small constant (~2), i.e. both curves are straight lines");
  std::puts("through the origin as in the paper's chart.");
  return 0;
}
