#!/usr/bin/env python3
"""Tests of the repository benchmark (stdlib unittest).

  python3 perfbench/test_perfbench.py

The unit tests cover the arithmetic in analysis.py: quartiles, span self
time, the per-layer derivations and the pin comparison. The smoke tests
build the runner and run all four workloads at smoke size, untraced and
traced, and require every metric BENCHMARK.json names, with its unit, and
passing checks. A last test runs the benchmark in a directory holding
only BENCHMARK.json and perfbench/ and requires a clean failure.
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import run  # noqa: E402


def span(sid, name, start, end, parent=0, count=0, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end,
            "thread": 0, "count": count, "attrs": attrs}


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        self.assertEqual(analysis.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_odd_count(self):
        self.assertEqual(analysis.quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))

    def test_median_is_middle_quartile(self):
        self.assertEqual(analysis.median([4.0, 1.0, 3.0]), 3.0)
        self.assertEqual(analysis.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(analysis.quartiles([7.5]), (7.5, 7.5, 7.5))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            analysis.quartiles([])


class SelfTimeTest(unittest.TestCase):
    def test_union_counts_overlap_once(self):
        self.assertEqual(analysis.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(analysis.union_length([(3, 3), (4, 2)]), 0)
        self.assertEqual(analysis.union_length([]), 0)

    def test_leaf_self_time_is_duration(self):
        self.assertEqual(analysis.self_time_ns(span(1, "a", 100, 250), []), 150)

    def test_disjoint_children_subtract(self):
        parent = span(1, "p", 0, 100)
        kids = [span(2, "c", 10, 30, 1), span(3, "c", 50, 60, 1)]
        self.assertEqual(analysis.self_time_ns(parent, kids), 70)

    def test_concurrent_children_cover_once(self):
        # Two replicates on two threads over the same interval: the
        # parent's self time is what neither covers.
        parent = span(1, "par", 0, 100)
        kids = [span(2, "rep", 10, 90, 1), span(3, "rep", 20, 80, 1)]
        self.assertEqual(analysis.self_time_ns(parent, kids), 20)

    def test_children_clip_to_parent(self):
        parent = span(1, "p", 50, 100)
        kids = [span(2, "c", 0, 60, 1), span(3, "c", 90, 200, 1)]
        self.assertEqual(analysis.self_time_ns(parent, kids), 30)

    def test_index_ns_per_op_uses_self_time(self):
        idx = analysis.SpanIndex([span(1, "outer", 0, 1000, count=10),
                                  span(2, "inner", 100, 600, 1, count=5)])
        self.assertEqual(idx.ns_per_op("outer"), 50.0)
        self.assertEqual(idx.ns_per_op("inner"), 100.0)
        with self.assertRaises(KeyError):
            idx.ns_per_op("missing")


def synthetic_traced_doc(tier="sim", bare_is_batch=1.0):
    """A traced document with round numbers: every per-op layer costs a
    known number of ns, so each derived metric has an exact expectation."""
    s, t = [], [0]

    def add(name, ns, count=1, parent=0, **attrs):
        sid = len(s) + 1
        s.append(span(sid, name, t[0], t[0] + ns, parent, count, **attrs))
        t[0] += ns
        return sid

    # Untraced call: 4 threads, 1000 ops in 1000 ns -> 4 ns/op per thread.
    add("e2e.call", 1000, 1000, traced=0.0, threads=4.0)
    # Traced call: 1250 ns for the same 1000 ops (obs.overhead = 0.25);
    # its fan-out runs 2 replicates on 4 threads for 1000 ns each of 1200.
    call = add("e2e.call", 0, 1000, traced=1.0, threads=4.0)
    start = t[0]
    fan = len(s) + 2
    s.append(span(fan - 1, "sim.validate", start, start + 50, call))
    s.append(span(fan, "par.parallel_map", start + 50, start + 1250, call, threads=4.0))
    s.append(span(fan + 1, "workload.replicate", start + 100, start + 1100, fan, 500))
    s.append(span(fan + 2, "workload.replicate", start + 100, start + 1100, fan, 500))
    s[call - 1]["end_ns"] = start + 1250
    t[0] = start + 1250
    add("rng.word", 200, 100)                    # 2 ns
    add("rng.uniform_below", 300, 100)           # 3 ns
    for _ in range(3):
        add("bin_state.construct", 4000, 1)      # 4 us
    add("bin_state.add.compact", 500, 100)       # 5 ns
    add("bin_state.add.wide", 600, 100)          # 6 ns
    add("bin_state.remove.wide", 700, 100)       # 7 ns
    add("rule.place_one.greedy2.compact", 2000, 100)               # 20 ns
    add("batch_kernel.place_batch", 1000, 100, fast_balls=90.0, fallback_balls=10.0)
    add("rule.place_one.adaptive.wide", 3000, 100, probes=150.0)  # 30 ns
    add("sim.compute_metrics", 8000, 1)
    add("sim.run_replicate", 1200, 100, bare_loop_is_batch=bare_is_batch)  # 12 ns
    add("dyn.workload_next", 100, 100)           # 1 ns
    add("dyn.place", 1000, 100)                  # 10 ns
    add("dyn.remove", 500, 100)                  # 5 ns
    add("dyn.run_dynamic_replicate", 2000, 100, arrivals=60.0, departures=40.0)
    add("shard.run", 1000, 100, shards=1.0, balls=0.0, probes=0.0, messages=0.0,
        cross_shard_probes=0.0, deferred_balls=0.0)
    add("shard.run", 500, 100, shards=2.0, balls=100.0, probes=200.0, messages=300.0,
        cross_shard_probes=100.0, deferred_balls=10.0)
    return {"tier": tier, "spans": s, "counters": {"lookahead_discarded_words": 7}}


class LayerMetricsTest(unittest.TestCase):
    def test_every_metric_is_derived(self):
        metrics, _, _ = analysis.layer_metrics(synthetic_traced_doc())
        expected = set(analysis.PER_LAYER_UNITS) - {"shard.ops_per_s.t4"}
        self.assertEqual(set(metrics), expected)

    def test_values(self):
        m, chain, e2e = analysis.layer_metrics(synthetic_traced_doc())
        self.assertEqual(m["rng.word_ns"], 2.0)
        self.assertEqual(m["rng.uniform_below_ns"], 3.0)
        self.assertEqual(m["bin_state.construct_s"], 4e-6)
        self.assertEqual(m["rule.probes_per_ball.adaptive"], 1.5)
        self.assertEqual(m["batch_kernel.fast_share"], 0.9)
        self.assertEqual(m["lookahead.discarded_words"], 7)
        self.assertEqual(m["sim.driver_ns_per_ball"], 2.0)  # 12 - place_batch 10
        self.assertEqual(m["sim.replicate_s.p50"], 1e-6)
        self.assertAlmostEqual(m["par.efficiency"], 2000 / (4 * 1200))
        self.assertAlmostEqual(m["par.idle_s"], (4 * 1200 - 2000) / 1e9)
        self.assertAlmostEqual(m["obs.overhead"], 0.25)
        # 20 ns per event - next 1 - 0.6 * place 10 - 0.4 * remove 5
        self.assertAlmostEqual(m["dyn.engine_ns_per_event"], 11.0)
        self.assertEqual(m["shard.ops_per_s.t2"], 2e8)
        self.assertEqual(m["shard.messages_per_ball"], 3.0)
        self.assertEqual(m["shard.cross_shard_share"], 0.5)
        self.assertEqual(m["shard.deferred_share"], 0.1)
        # The greedy chain telescopes to the isolated replicate (12 ns).
        self.assertAlmostEqual(sum(ns for _, ns in chain), 12.0)
        self.assertEqual(e2e, 4.0)
        self.assertAlmostEqual(m["layer.residual_share"], 1 - 12.0 / 4.0)

    def test_adaptive_chain_uses_place_one(self):
        m, chain, _ = analysis.layer_metrics(synthetic_traced_doc(bare_is_batch=0.0))
        self.assertEqual(m["sim.driver_ns_per_ball"], 12.0 - 30.0)
        self.assertAlmostEqual(sum(ns for _, ns in chain), 12.0)

    def test_dyn_chain_telescopes_to_event_cost(self):
        _, chain, _ = analysis.layer_metrics(synthetic_traced_doc(tier="dyn"))
        self.assertAlmostEqual(sum(ns for _, ns in chain), 20.0)


class PinTest(unittest.TestCase):
    PINS = {"full": {"w": {"max_load": 3, "gap": 2, "psi": 1.5, "psi_per_bin": 0.25}}}

    def doc(self, seed=1, psi=1.5):
        return {"seed": seed, "smoke": False, "workload": "w",
                "echo": {"max_load": 3, "gap": 2, "psi": psi, "psi_per_bin": 0.25}}

    def test_match(self):
        self.assertEqual(analysis.check_pins(self.doc(), self.PINS, 1), ("match", []))

    def test_mismatch_names_the_field(self):
        status, bad = analysis.check_pins(self.doc(psi=1.75), self.PINS, 1)
        self.assertEqual(status, "mismatch")
        self.assertEqual(len(bad), 1)
        self.assertTrue(bad[0].startswith("psi:"))

    def test_other_seeds_are_unpinned(self):
        self.assertEqual(analysis.check_pins(self.doc(seed=2), self.PINS, 1)[0], "unpinned")


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_and_units_agree(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         analysis.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         analysis.PER_LAYER_UNITS)

    def test_declared_workloads_exist(self):
        declared = [w["name"] for w in self.spec["workloads"]]
        self.assertGreaterEqual(len(declared), 2)
        self.assertLessEqual(set(declared), set(run.WORKLOADS))

    def test_pins_cover_every_workload(self):
        pins = json.loads((HERE / "pins.json").read_text())
        self.assertEqual(pins["seed"], run.DEFAULT_SEED)
        for size in ("full", "smoke"):
            self.assertEqual(set(pins[size]), set(run.WORKLOADS))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    """All four workloads at smoke size, through the real command."""

    def check(self, trace, expected_units):
        proc = run_bench("--workload", "all", "--smoke", "--seconds", "0.3",
                         "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        for workload in run.WORKLOADS:
            for name, unit in expected_units.items():
                metric = result["metrics"]["%s.%s" % (workload, name)]
                self.assertEqual(metric["unit"], unit)
                self.assertIsInstance(metric["value"], (int, float))
            self.assertIn("== " + workload, proc.stdout)
        self.assertIn("failed_share", proc.stdout)
        self.assertIn("[pins: match]", proc.stdout)

    def test_untraced_reports_end_to_end_metrics(self):
        self.check(0, analysis.END_TO_END_UNITS)

    def test_traced_reports_per_layer_metrics(self):
        self.check(1, analysis.PER_LAYER_UNITS)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_cleanly_without_the_library(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "sim-greedy2", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
