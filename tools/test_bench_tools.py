#!/usr/bin/env python3
"""Unit tests for the bench-record tools: validate_bench.py (v1 through
v4 records, including the v2 per-case "obs" block, the v3 machine.simd /
batch_* additions, and the v4 shard threads-sweep cases) and
compare_bench.py (diffing across schema versions).

Run directly (python3 tools/test_bench_tools.py) or through ctest.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare_bench  # noqa: E402
import validate_bench  # noqa: E402


def load_schema():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "bench_schema.json")
    with open(path) as f:
        return json.load(f)


def v1_record():
    return {
        "schema": "bbb-bench-v1",
        "label": "PRX",
        "commit": "deadbeef",
        "generated_unix": 1700000000,
        "machine": {"hardware_threads": 8, "compiler": "g++", "pointer_bits": 64},
        "config": {"smoke": True, "seed": 42},
        "cases": [
            {"id": "stream.greedy[2].wide", "kind": "stream", "layout": "wide",
             "n": 65536, "work": 131072, "seconds": 0.01,
             "per_second": 13107200.0, "ns_per_op": 76.3,
             "check": {"max_load": 5}},
        ],
    }


def obs_block():
    return {"probes": 262144, "balls_placed": 131072, "reallocations": 0,
            "rounds": 0, "lookahead_refills": 5199,
            "lookahead_discarded_words": 0, "compact_promotions": 0,
            "compact_demotions": 0, "explode_fallbacks": 0}


def v2_record():
    rec = v1_record()
    rec["schema"] = "bbb-bench-v2"
    rec["cases"][0]["obs"] = obs_block()
    return rec


def v3_record():
    rec = v2_record()
    rec["schema"] = "bbb-bench-v3"
    rec["machine"]["simd"] = "avx2"
    rec["cases"][0]["obs"].update(
        {"batch_batches": 1, "batch_waves": 1024, "batch_fast_balls": 131072,
         "batch_fallback_balls": 0, "batch_exact_balls": 9})
    return rec


def v4_record():
    rec = v3_record()
    rec["schema"] = "bbb-bench-v4"
    rec["cases"].append(
        {"id": "shard.greedy[2].t4", "kind": "shard", "layout": "wide",
         "n": 65536, "work": 131072, "seconds": 0.02,
         "per_second": 6553600.0, "ns_per_op": 152.6,
         "check": {"max_load": 5}, "shards": 4})
    return rec


def check_errors(record):
    errors = []
    validate_bench.check(record, load_schema(), "$", errors)
    return errors


class ValidateBench(unittest.TestCase):
    def test_v1_record_still_valid(self):
        self.assertEqual(check_errors(v1_record()), [])

    def test_v2_record_valid(self):
        self.assertEqual(check_errors(v2_record()), [])

    def test_v3_record_valid(self):
        self.assertEqual(check_errors(v3_record()), [])

    def test_v4_record_valid(self):
        self.assertEqual(check_errors(v4_record()), [])

    def test_unknown_schema_version_invalid(self):
        rec = v1_record()
        rec["schema"] = "bbb-bench-v5"
        self.assertTrue(any("bbb-bench-v5" in e for e in check_errors(rec)))

    def test_bad_case_kind_invalid(self):
        rec = v4_record()
        rec["cases"][1]["kind"] = "threads"
        self.assertTrue(any("kind" in e for e in check_errors(rec)))

    def test_zero_shards_invalid(self):
        rec = v4_record()
        rec["cases"][1]["shards"] = 0
        self.assertTrue(any("minimum" in e for e in check_errors(rec)))

    def test_bad_simd_tier_invalid(self):
        rec = v3_record()
        rec["machine"]["simd"] = "neon"
        self.assertTrue(any("simd" in e for e in check_errors(rec)))

    def test_obs_missing_counter_invalid(self):
        rec = v2_record()
        del rec["cases"][0]["obs"]["lookahead_refills"]
        self.assertTrue(any("lookahead_refills" in e for e in check_errors(rec)))

    def test_obs_negative_counter_invalid(self):
        rec = v2_record()
        rec["cases"][0]["obs"]["probes"] = -1
        self.assertTrue(any("minimum" in e for e in check_errors(rec)))

    def test_obs_wrong_type_invalid(self):
        rec = v2_record()
        rec["cases"][0]["obs"]["probes"] = "many"
        self.assertTrue(any("expected integer" in e for e in check_errors(rec)))


class CompareBench(unittest.TestCase):
    def run_compare(self, old, new):
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            old_path = os.path.join(d, "old.json")
            new_path = os.path.join(d, "new.json")
            with open(old_path, "w") as f:
                json.dump(old, f)
            with open(new_path, "w") as f:
                json.dump(new, f)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = compare_bench.main(["compare_bench", old_path, new_path])
        return code, out.getvalue()

    def test_v1_vs_v2_compares(self):
        code, out = self.run_compare(v1_record(), v2_record())
        self.assertEqual(code, 0)
        self.assertIn("stream.greedy[2].wide", out)
        self.assertIn("1.00x", out)

    def test_v2_vs_v2_compares(self):
        code, _ = self.run_compare(v2_record(), v2_record())
        self.assertEqual(code, 0)

    def test_v2_vs_v3_compares(self):
        code, out = self.run_compare(v2_record(), v3_record())
        self.assertEqual(code, 0)
        self.assertIn("1.00x", out)

    def test_v3_vs_v4_compares(self):
        code, out = self.run_compare(v3_record(), v4_record())
        self.assertEqual(code, 0)
        self.assertIn("1.00x", out)

    def test_unknown_schema_rejected(self):
        bad = v1_record()
        bad["schema"] = "bbb-bench-v5"
        code, _ = self.run_compare(bad, v2_record())
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
