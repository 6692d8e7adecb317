/// bench_ablation_unknown_m — why adaptive is the *right* unknown-m fix.
///
/// threshold needs m up-front. Three ways to cope when m is unknown:
///   oracle    — threshold told the true m (cheating baseline);
///   doubling  — guess-and-double threshold: keeps O(m) probes but the
///               bound cliff after each doubling ruins the max load;
///   adaptive  — the paper's protocol: O(m) probes AND ceil(m/n)+1 load.
/// The sweep places m just below and just above doubling boundaries, where
/// the difference is starkest.
///
///   $ ./bench_ablation_unknown_m

#include "bbb/core/protocol.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_ablation_unknown_m",
                          "unknown-m strategies: oracle vs doubling vs adaptive");
  args.add_flag("n", std::uint64_t{4'096}, "bins");
  bbb::bench::add_common_flags(args, 10);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n = args.get_u32("n");

  bbb::bench::print_header(
      "Extension: the unknown-m problem (paper §1.1)",
      "adaptive achieves oracle-threshold balance without knowing m; "
      "guess-and-double does not (bound cliff past each doubling).");

  bbb::par::ThreadPool pool(flags.threads);
  bbb::io::Table table({"m/n", "optimal+1", "oracle max", "doubling max",
                        "adaptive max", "oracle p/m", "doubling p/m",
                        "adaptive p/m"});
  table.set_title("n = " + std::to_string(n) +
                  "; m straddles doubling boundaries (guess starts at n)");
  // Just below / just above the 4n and 8n boundaries, plus a mid point.
  const double ratios[] = {3.9, 4.1, 6.0, 7.9, 8.2};
  for (const double r : ratios) {
    const auto m = static_cast<std::uint64_t>(r * n);
    const auto oracle = bbb::bench::run_cell("threshold", m, n, flags, pool);
    const auto doubling =
        bbb::bench::run_cell("doubling-threshold[0]", m, n, flags, pool);
    const auto adaptive = bbb::bench::run_cell("adaptive", m, n, flags, pool);
    table.begin_row();
    table.add_num(r, 1);
    table.add_int(static_cast<std::int64_t>(bbb::core::ceil_div(m, n) + 1));
    table.add_num(oracle.max_load.mean(), 2);
    table.add_num(doubling.max_load.mean(), 2);
    table.add_num(adaptive.max_load.mean(), 2);
    table.add_num(oracle.probes_per_ball(), 3);
    table.add_num(doubling.probes_per_ball(), 3);
    table.add_num(adaptive.probes_per_ball(), 3);
  }
  std::fputs(table.render(flags.format).c_str(), stdout);
  std::puts("\nexpected shape: oracle and adaptive sit at optimal+1 everywhere;");
  std::puts("doubling's max load overshoots right after each boundary (rows 4.1,");
  std::puts("8.2) because its acceptance bound tracks the *guess*, not m. All");
  std::puts("three stay near ~1 probe/ball — the loss is balance, not time.");
  return 0;
}
