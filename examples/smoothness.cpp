/// smoothness — watch Corollary 3.5 vs. Lemma 4.2 happen over time.
///
/// Runs adaptive and threshold side by side on the same (m, n) and prints
/// the potential-function trajectory (snapshots every n balls) plus the
/// final load histograms. adaptive's quadratic potential plateaus at O(n);
/// threshold's keeps climbing because it lets bins lag arbitrarily far
/// behind until the very end.
///
///   $ ./smoothness --n=2000 --phi=100

#include <cstdio>
#include <string>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/io/argparse.hpp"
#include "bbb/io/table.hpp"
#include "bbb/rng/xoshiro256.hpp"
#include "bbb/sim/trace.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("smoothness",
                          "potential-function trajectories: adaptive vs threshold");
  args.add_flag("n", std::uint64_t{2'000}, "bins");
  args.add_flag("phi", std::uint64_t{100}, "balls per bin (m = phi * n)");
  args.add_flag("points", std::uint64_t{10}, "trace points to print");
  args.add_flag("seed", std::uint64_t{3}, "RNG seed");
  args.add_flag("format", std::string("ascii"), "ascii|markdown|csv");
  if (!args.parse(argc, argv)) return 0;

  const auto n = args.get_u32("n");
  const auto m = args.get_u64("phi") * n;
  const auto points = args.get_u64("points");
  const auto seed = args.get_u64("seed");
  const auto format = bbb::io::parse_format(args.get_string("format"));
  const std::uint64_t stride = m / points;

  std::printf("m = %llu balls into n = %u bins\n\n",
              static_cast<unsigned long long>(m), n);

  bbb::rng::Engine gen_a(seed);
  bbb::core::StreamingAllocator adaptive(n, bbb::core::make_rule("adaptive", n));
  const auto trace_a = bbb::sim::trace_allocation(adaptive, gen_a, m, stride);
  auto table_a = bbb::sim::trace_table(trace_a);
  table_a.set_title("adaptive trajectory (psi plateaus at O(n))");
  std::fputs(table_a.render(format).c_str(), stdout);
  std::fputs("\n", stdout);

  bbb::rng::Engine gen_t(seed);
  bbb::core::StreamingAllocator threshold(n,
                                          bbb::core::make_rule("threshold", n, m));
  const auto trace_t = bbb::sim::trace_allocation(threshold, gen_t, m, stride);
  auto table_t = bbb::sim::trace_table(trace_t);
  table_t.set_title("threshold trajectory (psi grows until the endgame)");
  std::fputs(table_t.render(format).c_str(), stdout);
  std::fputs("\n", stdout);

  std::puts("final load histogram, adaptive (tight around m/n):");
  std::fputs(bbb::core::load_histogram(adaptive.state().loads()).render_ascii(40).c_str(),
             stdout);
  std::puts("\nfinal load histogram, threshold (long under-filled tail):");
  std::fputs(
      bbb::core::load_histogram(threshold.state().loads()).render_ascii(40).c_str(),
      stdout);
  return 0;
}
