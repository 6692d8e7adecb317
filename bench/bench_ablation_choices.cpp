/// bench_ablation_choices — the d-choice landscape behind Table 1: how max
/// load falls with d for greedy[d] vs left[d], against the theory columns
/// ln ln n / ln d and ln ln n / (d ln phi_d), and what that costs in probes.
/// This is the allocation-time/max-load trade-off the paper's protocols
/// escape.
///
///   $ ./bench_ablation_choices

#include <cmath>

#include "bbb/core/protocol.hpp"
#include "bbb/theory/bounds.hpp"
#include "bbb/theory/phi_d.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_ablation_choices",
                          "ablation: number of choices d in greedy/left");
  args.add_flag("n", std::uint64_t{65'536}, "bins");
  args.add_flag("phi", std::uint64_t{8}, "m/n (heavily loaded regime)");
  bbb::bench::add_common_flags(args, 10);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n = args.get_u32("n");
  const std::uint64_t m = args.get_u64("phi") * n;

  bbb::bench::print_header(
      "Table 1 context (SPAA'13)",
      "greedy[d]: m/n + ln ln n/ln d; left[d]: m/n + ln ln n/(d ln phi_d); "
      "both pay d probes per ball. adaptive gets ceil(m/n)+1 at ~2 probes.");

  bbb::par::ThreadPool pool(flags.threads);
  bbb::io::Table table({"protocol", "probes/ball", "max load (mean)",
                        "theory max load", "gap (mean)"});
  table.set_title("m = " + std::to_string(m) + ", n = " + std::to_string(n));

  const auto add_row = [&](const std::string& spec, double theory_load) {
    const auto s = bbb::bench::run_cell(spec, m, n, flags, pool);
    table.begin_row();
    table.add_cell(spec);
    table.add_num(s.probes_per_ball(), 3);
    table.add_num(s.max_load.mean(), 2);
    if (theory_load > 0) {
      table.add_num(theory_load, 2);
    } else {
      table.add_cell("ceil(m/n)+1 = " +
                     std::to_string(bbb::core::ceil_div(m, n) + 1));
    }
    table.add_num(s.gap.mean(), 2);
  };

  add_row("one-choice", bbb::theory::one_choice_max_load(m, n));
  for (std::uint32_t d : {2u, 3u, 4u}) {
    add_row("greedy[" + std::to_string(d) + "]",
            bbb::theory::greedy_d_max_load(m, n, d));
  }
  for (std::uint32_t d : {2u, 3u, 4u}) {
    add_row("left[" + std::to_string(d) + "]", bbb::theory::left_d_max_load(m, n, d));
  }
  add_row("memory[1,1]", static_cast<double>(m) / n +
                             std::log(std::log(static_cast<double>(n))) /
                                 (2.0 * std::log(bbb::theory::phi_d(2))));
  add_row("adaptive", -1.0);
  add_row("threshold", -1.0);

  std::fputs(table.render(flags.format).c_str(), stdout);
  std::puts("\nexpected shape: greedy/left max load falls slowly with d while the");
  std::puts("probe bill rises linearly in d; adaptive and threshold sit at the");
  std::puts("optimal corner (max load ceil(m/n)+1, ~1-2 probes/ball).");
  return 0;
}
