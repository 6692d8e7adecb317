/// bench_ablation_realloc — the reallocation-based end of the design space
/// (related work §1): Czumaj-Riley-Scheideler self-balancing reaches a
/// perfectly balanced allocation but pays post-placement moves; cuckoo
/// hashing pays relocation cascades that blow up near the load threshold.
/// The paper's protocols avoid reallocations entirely.
///
///   $ ./bench_ablation_realloc

#include "bbb/core/protocol.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_ablation_realloc",
                          "ablation: reallocation-based allocators");
  args.add_flag("n", std::uint64_t{4'096}, "bins/buckets");
  bbb::bench::add_common_flags(args, 10);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n = args.get_u32("n");

  bbb::bench::print_header(
      "Related work §1 (SPAA'13) — reallocation schemes",
      "CRS self-balancing: max load ceil(m/n) via O(m)+poly(n) moves; "
      "cuckoo insertions cascade near the density threshold.");

  bbb::par::ThreadPool pool(flags.threads);

  bbb::io::Table crs({"phi=m/n", "max load", "ceil(m/n)", "moves/m", "passes",
                      "greedy[2] max"});
  crs.set_title("self-balancing (CRS) vs plain greedy[2], n = " + std::to_string(n));
  for (std::uint64_t phi : {4ULL, 16ULL, 64ULL}) {
    const std::uint64_t m = phi * n;
    const auto sb = bbb::bench::run_cell("self-balancing", m, n, flags, pool);
    const auto g2 = bbb::bench::run_cell("greedy[2]", m, n, flags, pool);
    crs.begin_row();
    crs.add_int(static_cast<std::int64_t>(phi));
    crs.add_num(sb.max_load.mean(), 2);
    crs.add_int(static_cast<std::int64_t>(bbb::core::ceil_div(m, n)));
    crs.add_num(sb.reallocations.mean() / static_cast<double>(m), 3);
    crs.add_num(sb.rounds.mean(), 1);
    crs.add_num(g2.max_load.mean(), 2);
  }
  std::fputs(crs.render(flags.format).c_str(), stdout);
  std::fputs("\n", stdout);

  bbb::io::Table ck({"load factor", "moves/item", "probes/item", "failed inserts"});
  ck.set_title("cuckoo[2,4], n = " + std::to_string(n) + " buckets of 4");
  for (const double lf : {0.50, 0.70, 0.90, 0.95, 0.98}) {
    const auto m = static_cast<std::uint64_t>(lf * 4.0 * n);
    const auto s = bbb::bench::run_cell("cuckoo[2,4]", m, n, flags, pool);
    ck.begin_row();
    ck.add_num(lf, 2);
    ck.add_num(s.reallocations.mean() / static_cast<double>(m), 4);
    ck.add_num(s.probes_per_ball(), 3);
    ck.add_num(static_cast<double>(s.failures) / flags.reps, 2);
  }
  std::fputs(ck.render(flags.format).c_str(), stdout);
  std::puts("\nexpected shape: CRS hits ceil(m/n) with moves/m a small constant;");
  std::puts("cuckoo's moves/item explode as the load factor approaches the");
  std::puts("d=2,k=4 threshold (~0.98) — reallocations are the price of perfection.");
  return 0;
}
