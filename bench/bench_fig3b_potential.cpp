/// bench_fig3b_potential — reproduces Figure 3(b): average final quadratic
/// potential of adaptive and threshold as m grows, n fixed.
///
/// The paper's y-axis is "average potential / 5000"; we print both the raw
/// Psi and the paper-scaled column. Expected shape: adaptive's potential
/// converges to a value independent of m (Corollary 3.5 / Lemma 3.4);
/// threshold's keeps growing (Lemma 4.2).
///
///   $ ./bench_fig3b_potential [--n=10000] [--reps=20]

#include "bench_common.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_fig3b_potential",
                          "Figure 3(b): average final quadratic potential vs m");
  args.add_flag("n", std::uint64_t{10'000}, "bins (paper does not state; see DESIGN.md)");
  args.add_flag("m-min", std::uint64_t{100'000}, "smallest m");
  args.add_flag("m-max", std::uint64_t{1'000'000}, "largest m");
  args.add_flag("m-step", std::uint64_t{100'000}, "m increment");
  bbb::bench::add_common_flags(args, 20);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n = args.get_u32("n");

  bbb::bench::print_header(
      "Figure 3(b) (SPAA'13)",
      "average final Psi: adaptive flat (O(n), independent of m); "
      "threshold grows with m.");

  bbb::io::Table table({"m*1e-4", "threshold psi", "thr psi/5000", "adaptive psi",
                        "ada psi/5000", "ada psi/n"});
  table.set_title("n = " + std::to_string(n) + ", " + std::to_string(flags.reps) +
                  " replicates per point (paper: 100)");

  bbb::par::ThreadPool pool(flags.threads);
  for (std::uint64_t m = args.get_u64("m-min"); m <= args.get_u64("m-max");
       m += args.get_u64("m-step")) {
    const auto th = bbb::bench::run_cell("threshold", m, n, flags, pool);
    const auto ad = bbb::bench::run_cell("adaptive", m, n, flags, pool);
    table.begin_row();
    table.add_num(static_cast<double>(m) * 1e-4, 0);
    table.add_num(th.psi.mean(), 0);
    table.add_num(th.psi.mean() / 5000.0, 2);
    table.add_num(ad.psi.mean(), 0);
    table.add_num(ad.psi.mean() / 5000.0, 2);
    table.add_num(ad.psi.mean() / static_cast<double>(n), 3);
  }
  std::fputs(table.render(flags.format).c_str(), stdout);
  std::puts("\nexpected shape: threshold's psi column climbs monotonically with m;");
  std::puts("adaptive's is flat in m with psi/n a small constant — the separation");
  std::puts("the paper's Figure 3(b) shows.");
  return 0;
}
