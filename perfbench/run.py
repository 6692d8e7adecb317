#!/usr/bin/env python3
"""The repository benchmark of the bbb allocation engine.

Builds the library and the benchmark runner from source (CMake, Release,
into .bench_build/perfbench at the checkout root), runs one workload or
all of them, checks the outputs, and prints each metric by name with its
unit. The last line of standard output is one JSON object:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (ops_per_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, derived from
spans recorded around calls into each module. See README.md for the
workloads and what every metric means.

Usage:
  python3 perfbench/run.py --workload sim-greedy2 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all          # every workload, one table
  python3 perfbench/run.py --workload all --smoke  # tiny shapes, for tests

Exit status: 0 when every requested run measured (the checks' verdict is
the `correct` field), nonzero on a build failure, a runner error, or a
machine that cannot host a workload — then no result line is printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources

import analysis  # noqa: E402  (needs the path above)

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD_DIR / "bbb_perfbench"
WORKLOADS = ("sim-greedy2", "sim-adaptive", "giant-greedy2", "dyn-churn")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that stops the benchmark without a result line."""


def build():
    """Configure (once) and build the runner; a no-op when up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources not found at %s; run from a full checkout"
                         % (ROOT / "src"))
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found on PATH")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and str(HERE) not in cache.read_text(errors="replace"):
        shutil.rmtree(BUILD_DIR)  # configured from another checkout
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed (%s):\n%s" % (" ".join(cmd), "\n".join(tail)))


def run_binary(workload, seed, seconds, trace, smoke):
    cmd = [str(BINARY), "--workload=%s" % workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace, "--smoke=%d" % smoke]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("bbb_perfbench exited with status %d on %s" % (proc.returncode, workload))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d%s.json" % (workload, seed, trace, "-smoke" if smoke else "")
    (OUT_DIR / name).write_text(proc.stdout)
    return json.loads(proc.stdout)


def fmt(value):
    return "%.6g" % value


def summarize(doc, pins):
    """Metrics, verdict and report lines of one workload's document."""
    lines = []
    mach = doc["machine"]
    lines.append("== %s  (%s)" % (doc["workload"], doc["describe"]))
    lines.append("machine: %s | nproc %d | LLC L%d %.1f MiB | simd %s | %s" % (
        mach["cpu_model"], mach["nproc"], mach["llc_level"], mach["llc_bytes"] / 2**20,
        mach["simd"], mach["compiler"]))

    attempted = sum(c["ops"] for c in doc["calls"])
    failed = sum(c["failed_ops"] for c in doc["calls"])
    failures = list(doc["failures"])
    pin_status, pin_bad = analysis.check_pins(doc, pins, DEFAULT_SEED)
    if pin_status == "mismatch":
        failed += doc["echo"]["ops"]
        failures += ["pinned echo: " + b for b in pin_bad]
    failed = min(failed, attempted)

    if doc["trace"]:
        metrics, chain, e2e_ns = analysis.layer_metrics(doc)
        units = analysis.PER_LAYER_UNITS
        for name in units:
            if name in metrics:
                lines.append("  %-36s %14s %s" % (name, fmt(metrics[name]), units[name]))
        lines.append("  layer chain (ns/op, single thread) vs e2e %.4g ns/op per thread:"
                     % e2e_ns)
        for layer, ns in chain:
            lines.append("    %-32s %10.4g" % (layer, ns))
    else:
        metrics, report = analysis.e2e_metrics(doc)
        units = analysis.END_TO_END_UNITS
        for name in units:
            extra = ""
            if name in report:
                (q1, _, q3), count = report[name]
                extra = "  (q1 %s, q3 %s, %d samples)" % (fmt(q1), fmt(q3), count)
            lines.append("  %-12s %14s %-4s%s" % (name, fmt(metrics[name]), units[name], extra))
    lines.append("  %-12s %14s ratio (%d of %d ops)" % (
        "failed_share", fmt(failed / attempted), failed, attempted))
    echo = doc["echo"]
    lines.append("  echo (replicate 0): max_load=%s gap=%s psi=%s psi/n=%s [pins: %s]" % (
        fmt(echo["max_load"]), fmt(echo["gap"]), fmt(echo["psi"]),
        fmt(echo["psi_per_bin"]), pin_status))
    lines.append("  checks: " + ("ok" if not failures else "FAILED"))
    lines += ["    " + f for f in failures]
    result = {name: {"value": metrics[name], "unit": units[name]}
              for name in units if name in metrics}
    return result, not failures and failed == 0, attempted, failed, lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny shapes and no LLC gate (for the benchmark's tests)")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        build()
        pins = json.loads((HERE / "pins.json").read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            doc = run_binary(name, args.seed, args.seconds, args.trace, args.smoke)
            result, ok, att, fail, lines = summarize(doc, pins)
            print("\n".join(lines), flush=True)
            correct = correct and ok
            attempted += att
            failed += fail
            if len(names) == 1:
                metrics = result
            else:
                metrics.update({"%s.%s" % (name, k): v for k, v in result.items()})
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
