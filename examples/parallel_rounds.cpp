/// parallel_rounds — the synchronous-rounds model from the paper's related
/// work (Lenzen & Wattenhofer): how many communication rounds does it take
/// to place n balls into n bins with max load 2, and how many messages?
///
/// Sweeps n over powers of two and prints rounds/messages next to the
/// theoretical log*(n) scale.
///
///   $ ./parallel_rounds --max-exp=18

#include <cstdio>
#include <string>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/io/argparse.hpp"
#include "bbb/io/table.hpp"
#include "bbb/rng/xoshiro256.hpp"
#include "bbb/theory/bounds.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("parallel_rounds",
                          "rounds/messages of batched parallel allocation");
  args.add_flag("min-exp", std::uint64_t{8}, "smallest n = 2^min-exp");
  args.add_flag("max-exp", std::uint64_t{18}, "largest n = 2^max-exp");
  args.add_flag("capacity", std::uint64_t{2}, "bin capacity");
  args.add_flag("seed", std::uint64_t{5}, "RNG seed");
  args.add_flag("format", std::string("ascii"), "ascii|markdown|csv");
  if (!args.parse(argc, argv)) return 0;

  const auto lo = static_cast<std::uint32_t>(args.get_u64("min-exp"));
  const auto hi = static_cast<std::uint32_t>(args.get_u64("max-exp"));
  const auto capacity = static_cast<std::uint32_t>(args.get_u64("capacity"));
  const auto format = bbb::io::parse_format(args.get_string("format"));

  const auto protocol =
      bbb::core::make_protocol("batched[" + std::to_string(capacity) + "]");

  bbb::io::Table table({"n", "rounds", "log*(n)", "messages", "messages/n", "max load"});
  table.set_title("batched parallel allocation, m = n, capacity " +
                  std::to_string(capacity));
  for (std::uint32_t e = lo; e <= hi; ++e) {
    const std::uint64_t n = std::uint64_t{1} << e;
    bbb::rng::Engine gen(args.get_u64("seed") + e);
    const auto res = protocol->run(n, static_cast<std::uint32_t>(n), gen);
    std::uint32_t max_load = 0;
    for (auto l : res.loads) max_load = std::max(max_load, l);
    table.begin_row();
    table.add_int(static_cast<std::int64_t>(n));
    table.add_int(static_cast<std::int64_t>(res.rounds));
    table.add_int(bbb::theory::log_star(static_cast<double>(n)));
    table.add_int(static_cast<std::int64_t>(res.probes));
    table.add_num(static_cast<double>(res.probes) / static_cast<double>(n), 2);
    table.add_int(max_load);
  }
  std::fputs(table.render(format).c_str(), stdout);
  std::puts("\nLenzen-Wattenhofer: max load 2 within log*(n) + O(1) rounds and O(n)");
  std::puts("messages; the doubling-fanout variant here shows the same plateau.");
  return 0;
}
