/// bench_ablation_slack — the design-choice ablation the paper calls out in
/// Section 2: replacing adaptive's threshold i/n + 1 by i/n (slack 0) turns
/// every stage into a coupon collector, i.e. Theta(m log n) allocation time
/// for a perfectly tight max load. Larger slack buys fewer probes but a
/// looser bound and rougher distribution.
///
///   $ ./bench_ablation_slack

#include <cmath>

#include "bbb/core/protocol.hpp"
#include "bbb/theory/bounds.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_ablation_slack",
                          "ablation: the +1 in adaptive's threshold i/n + 1");
  args.add_flag("n", std::uint64_t{4'096}, "bins");
  args.add_flag("phi", std::uint64_t{16}, "m/n");
  bbb::bench::add_common_flags(args, 10);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n = args.get_u32("n");
  const std::uint64_t m = args.get_u64("phi") * n;

  bbb::bench::print_header(
      "Section 2 remark (SPAA'13)",
      "adaptive with threshold i/n (no +1) degenerates to a coupon collector "
      "per stage: Theta(m log n) time; the +1 buys O(m).");

  bbb::par::ThreadPool pool(flags.threads);
  bbb::io::Table table({"slack", "probes/m", "probes/(m ln n)", "max load",
                        "bound", "gap", "psi/n"});
  table.set_title("adaptive[slack], m = " + std::to_string(m) + ", n = " +
                  std::to_string(n));
  const double ln_n = std::log(static_cast<double>(n));
  for (std::uint32_t slack : {0u, 1u, 2u, 3u}) {
    const std::string spec = "adaptive[" + std::to_string(slack) + "]";
    const auto s = bbb::bench::run_cell(spec, m, n, flags, pool);
    table.begin_row();
    table.add_int(slack);
    table.add_num(s.probes_per_ball(), 3);
    table.add_num(s.probes_per_ball() / ln_n, 3);
    table.add_num(s.max_load.mean(), 2);
    table.add_int(static_cast<std::int64_t>(bbb::core::ceil_div(m, n) + slack));
    table.add_num(s.gap.mean(), 2);
    table.add_num(s.psi.mean() / n, 3);
  }
  std::fputs(table.render(flags.format).c_str(), stdout);
  std::printf("\nreference: H_n ~ %.2f = ln n + gamma, so slack 0 should show "
              "probes/(m ln n) ~ 1\n",
              bbb::theory::harmonic(n));
  std::puts("expected shape: slack 0 pays ~ln(n)x more probes for a perfectly");
  std::puts("tight bound; slack 1 (the paper) is the efficient sweet spot; more");
  std::puts("slack keeps O(m) probes but loosens the load bound.");
  return 0;
}
