/// bench_table1 — reproduces Table 1 of the paper: allocation time and max
/// load of the allocation schemes, measured instead of cited.
///
/// For each protocol the paper's table gives an allocation-time order and a
/// max-load bound; we print, per protocol and per load regime (m = n and
/// m = 8n), the measured probes/ball and the measured max load next to the
/// theoretical prediction.
///
///   $ ./bench_table1 [--n=65536] [--reps=10]

#include <cmath>

#include "bbb/theory/bounds.hpp"
#include "bbb/theory/phi_d.hpp"
#include "bench_common.hpp"

namespace {

struct Row {
  std::string spec;
  std::string time_theory;
  std::string load_theory;  // rendered per (m, n) below
};

std::string load_prediction(const std::string& spec, std::uint64_t m, std::uint32_t n) {
  using namespace bbb::theory;
  char buf[64];
  if (spec == "one-choice") {
    std::snprintf(buf, sizeof buf, "%.2f", one_choice_max_load(m, n));
  } else if (spec == "greedy[2]") {
    std::snprintf(buf, sizeof buf, "%.2f+O(1)", greedy_d_max_load(m, n, 2));
  } else if (spec == "greedy[3]") {
    std::snprintf(buf, sizeof buf, "%.2f+O(1)", greedy_d_max_load(m, n, 3));
  } else if (spec == "left[2]") {
    std::snprintf(buf, sizeof buf, "%.2f+O(1)", left_d_max_load(m, n, 2));
  } else if (spec == "memory[1,1]") {
    // Mitzenmacher et al.: ln ln n / (2 ln phi_2) + O(1) at m = n.
    std::snprintf(buf, sizeof buf, "%.2f+O(1)",
                  static_cast<double>(m) / n +
                      std::log(std::log(static_cast<double>(n))) /
                          (2.0 * std::log(phi_d(2))));
  } else {
    // threshold / adaptive: the paper's bound.
    std::snprintf(buf, sizeof buf, "<=%llu",
                  static_cast<unsigned long long>(paper_max_load_bound(m, n)));
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bench_table1", "Table 1: allocation time & max load");
  args.add_flag("n", std::uint64_t{65'536}, "bins");
  bbb::bench::add_common_flags(args, 10);
  if (!args.parse(argc, argv)) return 0;
  const auto flags = bbb::bench::read_common_flags(args);
  const auto n = args.get_u32("n");

  bbb::bench::print_header(
      "Table 1 (SPAA'13)",
      "greedy[d]/left[d] pay Theta(md) probes for log-log max load; "
      "threshold and adaptive pay O(m) probes for max load ceil(m/n)+1.");

  const std::vector<Row> rows = {
      {"one-choice", "m", ""},          {"greedy[2]", "2m", ""},
      {"greedy[3]", "3m", ""},          {"left[2]", "2m", ""},
      {"memory[1,1]", "m", ""},         {"threshold", "m+O(m^3/4 n^1/4)", ""},
      {"adaptive", "O(m)", ""},
  };

  bbb::par::ThreadPool pool(flags.threads);
  for (const std::uint64_t phi : {std::uint64_t{1}, std::uint64_t{8}}) {
    const std::uint64_t m = phi * n;
    bbb::io::Table table({"algorithm", "time theory", "probes/ball", "load theory",
                          "max load (mean)", "max load (worst)"});
    table.set_title("m = " + std::to_string(phi) + "n,  n = " + std::to_string(n) +
                    ",  " + std::to_string(flags.reps) + " replicates");
    for (const Row& row : rows) {
      const auto s = bbb::bench::run_cell(row.spec, m, n, flags, pool);
      table.begin_row();
      table.add_cell(row.spec);
      table.add_cell(row.time_theory);
      table.add_num(s.probes_per_ball(), 3);
      table.add_cell(load_prediction(row.spec, m, n));
      table.add_num(s.max_load.mean(), 2);
      table.add_int(static_cast<std::int64_t>(s.max_load.max()));
    }
    std::fputs(table.render(flags.format).c_str(), stdout);
    std::fputs("\n", stdout);
  }
  std::puts("expected shape: probes/ball ~ d for the d-choice family, ~1 for");
  std::puts("threshold, a small constant for adaptive; only threshold/adaptive");
  std::puts("stay within ceil(m/n)+1 in both regimes.");
  return 0;
}
