/// bench_thm31_adaptive_time — Theorem 3.1: the expected allocation time of
/// adaptive is O(m).
///
/// Two sweeps make the claim visible:
///  (1) n fixed, m growing over decades: probes/m must stay bounded;
///  (2) m/n fixed, n growing: probes/m must stay bounded (no hidden n term).
///
///   $ ./bench_thm31_adaptive_time

#include "bbb/stats/regression.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_thm31_adaptive_time",
                          "Theorem 3.1: adaptive allocation time is O(m)");
  args.add_flag("n", std::uint64_t{4'096}, "bins for the m-sweep");
  args.add_flag("phi", std::uint64_t{16}, "m/n for the n-sweep");
  bbb::bench::add_common_flags(args, 10);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n_fixed = args.get_u32("n");
  const auto phi_fixed = args.get_u64("phi");

  bbb::bench::print_header("Theorem 3.1 (SPAA'13)",
                           "E[allocation time of adaptive] = O(m).");

  bbb::par::ThreadPool pool(flags.threads);
  std::vector<double> ms, probes;

  bbb::io::Table sweep_m({"phi=m/n", "m", "probes/m (mean)", "ci95"});
  sweep_m.set_title("sweep 1: n = " + std::to_string(n_fixed) + " fixed, m growing");
  for (std::uint64_t phi : {1ULL, 4ULL, 16ULL, 64ULL, 256ULL}) {
    const std::uint64_t m = phi * n_fixed;
    const auto s = bbb::bench::run_cell("adaptive", m, n_fixed, flags, pool);
    sweep_m.begin_row();
    sweep_m.add_int(static_cast<std::int64_t>(phi));
    sweep_m.add_int(static_cast<std::int64_t>(m));
    sweep_m.add_num(s.probes_per_ball(), 4);
    sweep_m.add_num(s.probes.ci95_halfwidth() / static_cast<double>(m), 4);
    ms.push_back(static_cast<double>(m));
    probes.push_back(s.probes.mean());
  }
  std::fputs(sweep_m.render(flags.format).c_str(), stdout);

  // Fit probes ~ m^alpha: Theorem 3.1 predicts alpha = 1.
  const auto fit = bbb::stats::power_law_fit(ms, probes);
  std::printf("\nfit: probes ~ m^%.3f (R^2 = %.4f); Theorem 3.1 predicts exponent 1\n\n",
              fit.exponent, fit.r_squared);

  bbb::io::Table sweep_n({"n", "m", "probes/m (mean)", "ci95"});
  sweep_n.set_title("sweep 2: phi = m/n = " + std::to_string(phi_fixed) +
                    " fixed, n growing");
  for (std::uint32_t e = 10; e <= 16; e += 2) {
    const std::uint32_t n = 1u << e;
    const std::uint64_t m = phi_fixed * n;
    const auto s = bbb::bench::run_cell("adaptive", m, n, flags, pool);
    sweep_n.begin_row();
    sweep_n.add_int(n);
    sweep_n.add_int(static_cast<std::int64_t>(m));
    sweep_n.add_num(s.probes_per_ball(), 4);
    sweep_n.add_num(s.probes.ci95_halfwidth() / static_cast<double>(m), 4);
  }
  std::fputs(sweep_n.render(flags.format).c_str(), stdout);
  std::puts("\nexpected shape: both probes/m columns flat at a small constant —");
  std::puts("linear time in m with no dependence on n.");
  return 0;
}
