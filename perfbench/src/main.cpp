/// bbb_perfbench — the benchmark runner behind perfbench/run.py.
///
///   bbb_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--smoke=1]
///
/// Prints one JSON document on stdout with the raw measurements (set-up
/// samples, timed calls, check failures, echoes, machine fingerprint and,
/// for --trace=1, the recorded spans); run.py reduces it to metrics.
/// Progress and errors go to stderr. Exit codes: 0 = measured (the checks'
/// verdict is in the document), 1 = runtime error, 2 = bad arguments,
/// 3 = the machine cannot host the workload (giant-greedy2's slab does not
/// exceed the last-level cache).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#if defined(__GLIBC__)  // defined by the libc headers above
#include <malloc.h>
#endif

#include "layers.hpp"
#include "machine.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Accepts `--key=value` and `--key value`. Throws on anything else.
Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + key);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--smoke") {
      args.smoke = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

void write_machine(JsonWriter& json, const Machine& m) {
  json.begin_object("machine")
      .field("cpu_model", m.cpu_model)
      .field("nproc", static_cast<std::uint64_t>(m.nproc))
      .field("llc_bytes", m.llc_bytes)
      .field("llc_level", static_cast<std::uint64_t>(m.llc_level))
      .field("simd", m.simd)
      .field("compiler", m.compiler)
      .end_object();
}

void write_calls(JsonWriter& json, const std::vector<CallResult>& calls,
                 const std::vector<bool>& traced) {
  json.begin_array("calls");
  for (std::size_t i = 0; i < calls.size(); ++i) {
    json.begin_object()
        .field("wall_s", calls[i].wall_s)
        .field("ops", calls[i].ops)
        .field("failed_ops", calls[i].failed_ops)
        .field("traced", static_cast<bool>(traced[i]))
        .end_object();
  }
  json.end_array();
}

void write_failures(JsonWriter& json, const std::vector<CallResult>& calls,
                    const std::vector<std::string>& extra) {
  json.begin_array("failures");
  for (const CallResult& c : calls) {
    for (const std::string& f : c.failures) json.field({}, f);
  }
  for (const std::string& f : extra) json.field({}, f);
  json.end_array();
}

void write_echo(JsonWriter& json, const Echo& echo, std::uint64_t ops) {
  json.begin_object("echo")
      .field("max_load", echo.max_load)
      .field("gap", echo.gap)
      .field("psi", echo.psi)
      .field("psi_per_bin", echo.psi_per_bin)
      .field("ops", ops)
      .end_object();
}

/// Set-up samples: at least 5, then more until about a second is spent
/// (at most 301), so the reported median is steady for cheap and costly
/// set-ups alike.
std::vector<double> setup_samples(const Runner& runner) {
  std::vector<double> samples;
  const auto start = std::chrono::steady_clock::now();
  while (samples.size() < 5 || (samples.size() < 301 && seconds_since(start) < 1.0)) {
    samples.push_back(runner.measure_setup_s());
  }
  return samples;
}

void run_untraced(const Args& args, const Plan& plan, JsonWriter& json) {
  Runner runner(plan, args.seed, nullptr);
  const std::vector<double> setup = setup_samples(runner);
  // The peak covers the timed calls (each builds its own states), not the
  // set-up samples above.
  const bool rss_reset = reset_peak_rss();

  std::vector<CallResult> calls;
  const auto start = std::chrono::steady_clock::now();
  do {
    calls.push_back(runner.call(calls.size(), false));
  } while (seconds_since(start) < args.seconds && calls.size() < 10000);
  std::fprintf(stderr, "perfbench: %zu calls in %.2f s\n", calls.size(), seconds_since(start));
  const double rss_mb = peak_rss_mb();

  const std::vector<std::string> verify = runner.verify(0, calls.front());
  if (!verify.empty()) calls.front().failed_ops += plan.ops_per_replicate();

  json.begin_array("setup_s");
  for (const double s : setup) json.value(s);
  json.end_array();
  write_calls(json, calls, std::vector<bool>(calls.size(), false));
  write_failures(json, calls, verify);
  write_echo(json, calls.front().echo, plan.ops_per_replicate());
  json.field("peak_rss_mb", rss_mb);
  json.field("peak_rss_calls_only", rss_reset);
}

void run_traced(const Args& args, const Plan& plan, const Machine& machine,
                JsonWriter& json) {
  Tracer tracer;
  Runner runner(plan, args.seed, &tracer);
  // Untraced and traced calls alternate on the same seeds, so their ratio
  // (obs.overhead) compares identical work.
  std::vector<CallResult> calls;
  std::vector<bool> traced;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k == 0 || seconds_since(start) < args.seconds / 2; ++k) {
    calls.push_back(runner.call(k, false));
    traced.push_back(false);
    calls.push_back(runner.call(k, true));
    traced.push_back(true);
  }
  const Plan dyn_plan = make_plan("dyn-churn", args.smoke, machine.nproc);
  const std::vector<std::string> layer_failures =
      measure_layers(plan, dyn_plan, args.smoke, args.seed, machine, tracer);
  std::fprintf(stderr, "perfbench: traced run took %.2f s\n", seconds_since(start));

  std::uint64_t discarded = 0;
  for (const CallResult& c : calls) discarded += c.discarded_words;
  write_calls(json, calls, traced);
  write_failures(json, calls, layer_failures);
  write_echo(json, calls.front().echo, plan.ops_per_replicate());
  json.begin_object("counters").field("lookahead_discarded_words", discarded).end_object();
  write_spans(json, tracer.spans());
}

int run(int argc, char** argv) {
#if defined(__GLIBC__)
  // A fixed mmap threshold: every slab of 1 MiB or more is mapped fresh
  // and returned on free, as in a one-shot bbb_sim process. glibc's
  // default raises the threshold after the first free, so later calls
  // would recycle heap memory instead, and the peak RSS would depend on
  // which arena kept which freed slab.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
  Args args;
  Plan plan;
  Machine machine = fingerprint();
  try {
    args = parse_args(argc, argv);
    plan = make_plan(args.workload, args.smoke, machine.nproc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbb_perfbench: %s\n", e.what());
    return 2;
  }
  if (plan.beyond_llc && (machine.llc_bytes == 0 || plan.slab_bytes() <= machine.llc_bytes)) {
    std::fprintf(stderr,
                 "bbb_perfbench: %s set-up failed: its %llu-byte slab must exceed the "
                 "last-level cache (%llu bytes measured), or it would run in cache\n",
                 plan.name.c_str(), static_cast<unsigned long long>(plan.slab_bytes()),
                 static_cast<unsigned long long>(machine.llc_bytes));
    return 3;
  }
  std::fprintf(stderr, "perfbench: %s: %s\n", plan.name.c_str(), plan.describe().c_str());

  JsonWriter json;
  json.begin_object()
      .field("workload", plan.name)
      .field("tier", plan.tier == Tier::kSim ? "sim" : "dyn")
      .field("describe", plan.describe())
      .field("seed", args.seed)
      .field("seconds", args.seconds)
      .field("trace", args.trace)
      .field("smoke", args.smoke)
      .field("replicates", static_cast<std::uint64_t>(plan.replicates))
      .field("threads", static_cast<std::uint64_t>(plan.threads));
  write_machine(json, machine);
  if (args.trace) {
    run_traced(args, plan, machine, json);
  } else {
    run_untraced(args, plan, json);
  }
  json.end_object();
  std::fwrite(json.str().data(), 1, json.str().size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbb_perfbench: %s\n", e.what());
    return 1;
  }
}
