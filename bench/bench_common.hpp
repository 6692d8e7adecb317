#pragma once
/// \file bench_common.hpp
/// Shared scaffolding for the reproduction harnesses: the standard flag set
/// (--reps, --seed, --format, --threads) and small print helpers. Every
/// harness prints (a) the paper's claim, (b) a table whose rows mirror the
/// paper's table/figure, and (c) a one-line verdict where a scaling fit is
/// involved.

#include <cstdio>
#include <string>

#include "bbb/io/argparse.hpp"
#include "bbb/io/table.hpp"
#include "bbb/par/thread_pool.hpp"
#include "bbb/sim/runner.hpp"

namespace bbb::bench {

/// Register the flags every harness shares.
inline void add_common_flags(io::ArgParser& args, std::uint64_t default_reps) {
  args.add_flag("reps", default_reps, "replicates per configuration");
  args.add_flag("seed", std::uint64_t{42}, "master seed");
  args.add_flag("format", std::string("ascii"), "ascii|markdown|csv");
  args.add_flag("threads", std::uint64_t{0}, "worker threads (0 = hardware)");
  args.add_flag("smoke", std::uint64_t{0},
                "1 = minimal smoke run: reps=1 and tiny problem sizes (CI "
                "uses this to keep every bench binary building AND running)");
}

struct CommonFlags {
  std::uint32_t reps;
  std::uint64_t seed;
  io::Format format;
  std::size_t threads;
  bool smoke;
};

inline CommonFlags read_common_flags(const io::ArgParser& args) {
  const bool smoke = args.get_u64("smoke") != 0;
  return CommonFlags{smoke ? 1u : args.get_u32("reps"), args.get_u64("seed"),
                     io::parse_format(args.get_string("format")),
                     static_cast<std::size_t>(args.get_u64("threads")), smoke};
}

/// `value` normally, `smoke_value` under --smoke=1 — how each harness
/// shrinks its problem-size knobs for the CI smoke step.
inline std::uint64_t smoke_or(const CommonFlags& flags, std::uint64_t value,
                              std::uint64_t smoke_value) {
  return flags.smoke ? smoke_value : value;
}

/// Run one (spec, m, n) cell with the shared flags.
inline sim::RunSummary run_cell(const std::string& spec, std::uint64_t m,
                                std::uint32_t n, const CommonFlags& flags,
                                par::ThreadPool& pool) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = spec;
  cfg.m = m;
  cfg.n = n;
  cfg.replicates = flags.reps;
  cfg.seed = flags.seed;
  return sim::run_experiment(cfg, pool);
}

/// Banner: experiment id + the paper's claim.
inline void print_header(const std::string& experiment, const std::string& claim) {
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf("paper: %s\n\n", claim.c_str());
}

}  // namespace bbb::bench
