/// bbb_trace — record the load-distribution trajectory of a streaming
/// protocol: snapshots of max/min/psi/ln(phi) every m/points balls, printed
/// as a table (and optionally CSV). This is the tool behind the smoothness
/// pictures: watch adaptive stay flat while threshold digs holes.
///
///   $ bbb_trace --protocol=adaptive --m=1000000 --n=10000 --points=20
///
/// Every registry spec is accepted (--list=1 prints them); snapshots are
/// read off the incremental BinState, so even per-ball traces (--points=m)
/// of million-ball runs cost O(m), not O(m n).

#include <cstdio>
#include <string>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/io/argparse.hpp"
#include "bbb/io/csv.hpp"
#include "bbb/obs/cli.hpp"
#include "bbb/obs/harvest.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/sim/trace.hpp"

int main(int argc, char** argv) {
  bbb::io::ArgParser args("bbb_trace", "load-distribution trajectory of a protocol");
  args.add_flag("protocol", std::string("adaptive"),
                "registry protocol spec (see --list=1)");
  args.add_flag("m", std::uint64_t{100'000}, "balls");
  args.add_flag("n", std::uint64_t{10'000}, "bins");
  args.add_flag("points", std::uint64_t{10}, "snapshots to record");
  args.add_flag("seed", std::uint64_t{42}, "seed");
  args.add_flag("format", std::string("ascii"), "ascii|markdown|csv");
  args.add_flag("csv", std::string(""), "also dump points to this CSV file");
  args.add_flag("list", std::uint64_t{0}, "1 = print protocol spec strings and exit");
  bbb::obs::add_obs_flags(args);
  try {
    if (!args.parse(argc, argv)) return 0;

    if (args.get_u64("list") != 0) {
      std::puts("protocols:");
      for (const auto& s : bbb::core::protocol_specs()) {
        std::printf("  %s\n", s.c_str());
      }
      return 0;
    }

    const auto m = args.get_u64("m");
    const auto n = args.get_u32("n");
    const auto points = args.get_u64("points");
    const auto format = bbb::io::parse_format(args.get_string("format"));
    if (points == 0) throw std::invalid_argument("--points must be positive");
    const bbb::obs::ObsConfig obs = bbb::obs::parse_obs_flags(args);

    bbb::rng::Engine gen(args.get_u64("seed"));
    // The m hint binds fixed-bound rules (threshold) to this run's total;
    // the factory also honors capacities= prefixes (heterogeneous bins).
    const std::string& spec = args.get_string("protocol");
    const auto protocol = bbb::core::make_protocol(spec);
    const bbb::core::StateLayout layout = protocol->preferred_layout(n, m);
    const auto alloc = protocol->bind(n, m, layout);
    if (obs.sink) {
      bbb::obs::JsonLine line("run_start", "trace");
      line.begin_object("config")
          .field("protocol", alloc->name())
          .field("m", m)
          .field("n", static_cast<std::uint64_t>(n))
          .field("points", points)
          .field("seed", args.get_u64("seed"))
          .field("layout", bbb::core::to_string(layout))
          .end_object();
      obs.sink->write(std::move(line));
    }
    const auto trace = bbb::sim::trace_allocation(*alloc, gen, m, m / points);
    // No runner sits between this CLI and the allocator, so harvest the
    // core's passive counters directly once the stream is complete.
    bbb::obs::Snapshot obs_snapshot;
    if (obs.counters_on()) {
      bbb::obs::fold_into(obs_snapshot, bbb::obs::harvest(*alloc));
      if (obs.sink) {
        bbb::obs::JsonLine line("summary", "trace");
        bbb::obs::append_metrics(line, obs_snapshot);
        obs.sink->write(std::move(line));
      }
    }

    auto table = bbb::sim::trace_table(trace);
    table.set_title(alloc->name() + " trajectory, m = " + std::to_string(m) +
                    ", n = " + std::to_string(n) + ", layout = " +
                    std::string(bbb::core::to_string(layout)));
    std::fputs(table.render(format).c_str(), stdout);
    // Metric summary on stderr so piped stdout (csv/markdown) stays clean.
    bbb::obs::print_summary(obs_snapshot, stderr);

    const std::string csv_path = args.get_string("csv");
    if (!csv_path.empty()) {
      bbb::io::CsvWriter csv(csv_path,
                             {"balls", "probes", "max", "min", "psi", "ln_phi"});
      for (const auto& p : trace) {
        csv.write_row(std::vector<double>{
            static_cast<double>(p.balls), static_cast<double>(p.probes),
            static_cast<double>(p.max_load), static_cast<double>(p.min_load), p.psi,
            p.log_phi});
      }
      std::printf("wrote %zu trace rows to %s\n", csv.rows(), csv_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbb_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
