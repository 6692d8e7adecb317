/// bench_lemma34_drift — the potential-drift engine of adaptive's analysis
/// (Lemmas 3.2-3.4 and Corollary 3.5), observed per stage:
///  * Phi^{tau} stays O(n) for every stage tau (Corollary 3.5);
///  * the per-stage drift Phi^{tau+1}/Phi^{tau} never exceeds (1 + eps) and
///    averages below 1 once Phi is above its equilibrium;
///  * deeply underloaded bins receive > 1 ball per stage on average
///    (Lemma 3.2's Poi(199/198) domination).
///
///   $ ./bench_lemma34_drift

#include "bbb/model/stage_drift.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_lemma34_drift",
                          "Lemmas 3.2-3.4: stage-level potential drift");
  args.add_flag("n", std::uint64_t{16'384}, "bins");
  args.add_flag("stages", std::uint64_t{32}, "stages of n balls each");
  bbb::bench::add_common_flags(args, 1);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n = args.get_u32("n");
  const auto stages = args.get_u32("stages");

  bbb::bench::print_header(
      "Lemmas 3.2-3.4 (SPAA'13)",
      "E[Phi^{tau+1}] <= (1 - kappa/2) Phi^tau above equilibrium; Phi = O(n) "
      "at every stage; underloaded bins receive Poi(199/198)-many balls.");

  bbb::rng::Engine gen(flags.seed);
  const auto recs = bbb::model::adaptive_stage_records(n, stages, gen);

  bbb::io::Table table({"stage", "phi/n", "drift phi'/phi", "probes/n",
                        "underloaded bins", "mean arrivals"});
  table.set_title("n = " + std::to_string(n) + ", eps = 1/200, deep hole C1 = 4");
  for (const auto& r : recs) {
    table.begin_row();
    table.add_int(static_cast<std::int64_t>(r.stage));
    table.add_num(r.phi_after / n, 4);
    table.add_num(r.drift, 4);
    table.add_num(static_cast<double>(r.probes) / n, 3);
    table.add_int(static_cast<std::int64_t>(r.underloaded));
    table.add_num(r.mean_arrivals_deep, 3);
  }
  std::fputs(table.render(flags.format).c_str(), stdout);
  std::puts("\nexpected shape: phi/n settles to a constant (~1.01) and stays there;");
  std::puts("drift hovers at 1.0 with excursions bounded by 1 + eps = 1.005;");
  std::puts("mean arrivals into underloaded bins > 1 (they catch up) —");
  std::puts("the mechanics behind Theorem 3.1 and Corollary 3.5.");
  return 0;
}
