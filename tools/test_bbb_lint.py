#!/usr/bin/env python3
"""Fixture tests for bbb_lint.py: every rule must fire on a seeded
violation and stay silent on the matching clean case.

Each test builds a miniature repo in a temp dir, seeds exactly one
contract breach, and asserts the rule reports it (and nothing else). The
final test runs the full linter over the real tree — the same check ctest
and CI run — so the fixtures and the production tree are verified by one
file.

Stdlib only (unittest), like the validate_* test harnesses.
Run: python3 tools/test_bbb_lint.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bbb_lint  # noqa: E402  (path bootstrap above)


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def rules_fired(violations):
    return sorted({rule for _path, _line, rule, _msg in violations})


class FixtureTree(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        # Minimal clean skeleton every test starts from.
        write(self.root, "src/bbb/core/protocols/registry.cpp",
              'if (s.name == "one-choice") return make();\n')
        write(self.root, "tests/protocols/golden_pins_test.cpp",
              'TEST(RegistryGoldenPins, OneChoice) { run("one-choice"); }\n')

    def tearDown(self):
        self._tmp.cleanup()


class ObsBoundary(FixtureTree):
    def test_core_including_obs_fires(self):
        write(self.root, "src/bbb/core/alloc.cpp",
              '#include "bbb/obs/metrics.hpp"\n')
        violations = bbb_lint.check_obs_boundary(self.root)
        self.assertEqual(rules_fired(violations), ["obs-boundary"])
        self.assertIn("src/bbb/core/alloc.cpp", violations[0][0])

    def test_obs_include_outside_core_is_clean(self):
        write(self.root, "src/bbb/sim/runner.cpp",
              '#include "bbb/obs/metrics.hpp"\n')
        self.assertEqual(bbb_lint.check_obs_boundary(self.root), [])

    def test_suppression_comment_silences(self):
        write(self.root, "src/bbb/core/alloc.cpp",
              '#include "bbb/obs/metrics.hpp"  // bbb-lint: allow(obs-boundary)\n')
        self.assertEqual(bbb_lint.check_obs_boundary(self.root), [])


class LemireOnly(FixtureTree):
    def test_raw_gen_draw_in_core_fires(self):
        write(self.root, "src/bbb/core/alloc.cpp",
              "const auto word = gen();\n")
        violations = bbb_lint.check_lemire_only(self.root)
        self.assertEqual(rules_fired(violations), ["lemire-only"])

    def test_std_sampler_in_core_fires(self):
        write(self.root, "src/bbb/core/alloc.cpp",
              "std::uniform_int_distribution<std::uint32_t> dist(0, n - 1);\n")
        violations = bbb_lint.check_lemire_only(self.root)
        self.assertEqual(rules_fired(violations), ["lemire-only"])

    def test_probe_hpp_is_exempt_for_raw_draws(self):
        write(self.root, "src/bbb/core/probe.hpp",
              "#pragma once\nbuffer_[i] = gen();\n")
        self.assertEqual(bbb_lint.check_lemire_only(self.root), [])

    def test_gen_in_comment_is_clean(self):
        write(self.root, "src/bbb/core/alloc.cpp",
              "// raw gen() draws are banned here\n"
              "const auto bin = rng::uniform_below(gen, n);\n")
        self.assertEqual(bbb_lint.check_lemire_only(self.root), [])


class GoldenPinCoverage(FixtureTree):
    def test_unpinned_family_fires(self):
        write(self.root, "src/bbb/core/protocols/registry.cpp",
              'if (s.name == "one-choice") return a();\n'
              'if (s.name == "greedy") return b();\n')
        violations = bbb_lint.check_golden_pin_coverage(self.root)
        self.assertEqual(rules_fired(violations), ["golden-pin-coverage"])
        self.assertIn("'greedy'", violations[0][3])

    def test_pins_outside_goldenpins_suites_do_not_count(self):
        write(self.root, "tests/protocols/other_test.cpp",
              'TEST(Invariants, OneChoice) { run("one-choice"); }\n')
        write(self.root, "tests/protocols/golden_pins_test.cpp", "// empty\n")
        violations = bbb_lint.check_golden_pin_coverage(self.root)
        self.assertEqual(rules_fired(violations), ["golden-pin-coverage"])

    def test_all_families_pinned_is_clean(self):
        self.assertEqual(bbb_lint.check_golden_pin_coverage(self.root), [])

    def test_unpinned_prefix_family_fires(self):
        write(self.root, "src/bbb/core/protocols/registry.cpp",
              'if (s.name == "one-choice") return a();\n'
              "if (prefix.shards != 0) return sharded();\n")
        violations = bbb_lint.check_golden_pin_coverage(self.root)
        self.assertEqual(rules_fired(violations), ["golden-pin-coverage"])
        self.assertIn("'shards['", violations[0][3])

    def test_pinned_prefix_family_is_clean(self):
        write(self.root, "src/bbb/core/protocols/registry.cpp",
              'if (s.name == "one-choice") return a();\n'
              "if (prefix.shards != 0) return sharded();\n")
        write(self.root, "tests/protocols/golden_pins_test.cpp",
              'TEST(RegistryGoldenPins, OneChoice) { run("one-choice"); }\n'
              'TEST(RegistryGoldenPins, ShardsTwo) { run("shards[2]:one-choice"); }\n')
        self.assertEqual(bbb_lint.check_golden_pin_coverage(self.root), [])

    def test_parse_chain_shape_is_found(self):
        # The registry's one parse: an else-if chain with several spellings
        # on one line (or wrapped), and the prefix read off a member.
        write(self.root, "src/bbb/core/protocols/registry.cpp",
              'if (s.name == "one-choice") {\n'
              '} else if (s.name == "greedy") {\n'
              '} else if (s.name == "adaptive" || s.name == "adaptive-net" ||\n'
              '           s.name == "adaptive-total") {\n'
              '}\n'
              "if (parsed.prefix.shards != 0) return sharded();\n")
        self.assertEqual(bbb_lint.registry_families(self.root),
                         ["one-choice", "greedy", "adaptive", "adaptive-net",
                          "adaptive-total", "shards["])

    def test_empty_scan_is_flagged(self):
        # A dispatch the scan cannot read (here a table) must not pass as
        # "every family pinned".
        write(self.root, "src/bbb/core/protocols/registry.cpp",
              'const Entry kFamilies[] = {{"one-choice", &one}, {"greedy", &two}};\n')
        self.assertEqual(bbb_lint.registry_families(self.root), [])
        violations = bbb_lint.check_golden_pin_coverage(self.root)
        self.assertEqual(rules_fired(violations), ["golden-pin-coverage"])
        self.assertIn("no protocol families found", violations[0][3])


class NoWildRandomness(FixtureTree):
    def test_each_banned_token_fires(self):
        write(self.root, "src/bbb/sim/bad.cpp",
              "std::srand(static_cast<unsigned>(time(nullptr)));\n"
              "const int r = std::rand();\n"
              "std::random_device rd;\n")
        violations = bbb_lint.check_no_wild_randomness(self.root)
        self.assertEqual(rules_fired(violations), ["no-wild-randomness"])
        # srand + time on line 1, rand on line 2, random_device on line 3.
        self.assertEqual(len(violations), 4)

    def test_rng_dir_is_exempt(self):
        write(self.root, "src/bbb/rng/seed.cpp", "std::random_device rd;\n")
        self.assertEqual(bbb_lint.check_no_wild_randomness(self.root), [])

    def test_identifier_containing_time_is_clean(self):
        write(self.root, "src/bbb/sim/good.cpp",
              "const double t = coupon_collector_time(n);\n"
              "// wall time (ns) measured via steady_clock\n"
              'log("allocation time (Theorem 3.1)");\n')
        self.assertEqual(bbb_lint.check_no_wild_randomness(self.root), [])


class HeaderHygiene(FixtureTree):
    def test_missing_pragma_once_fires(self):
        write(self.root, "src/bbb/core/alloc.hpp",
              "/// Doc comment.\n#include <cstdint>\n")
        violations = bbb_lint.check_header_hygiene(self.root)
        self.assertEqual(rules_fired(violations), ["header-hygiene"])

    def test_using_namespace_in_header_fires(self):
        write(self.root, "src/bbb/core/alloc.hpp",
              "#pragma once\nusing namespace std;\n")
        violations = bbb_lint.check_header_hygiene(self.root)
        self.assertEqual(rules_fired(violations), ["header-hygiene"])

    def test_doc_comment_then_pragma_is_clean(self):
        write(self.root, "src/bbb/core/alloc.hpp",
              "/// Doc comment.\n/* block\n   comment */\n#pragma once\n"
              "using std::uint32_t;  // using-declaration is fine\n")
        self.assertEqual(bbb_lint.check_header_hygiene(self.root), [])

    def test_cpp_files_are_not_checked(self):
        write(self.root, "src/bbb/core/alloc.cpp", "using namespace bbb;\n")
        self.assertEqual(bbb_lint.check_header_hygiene(self.root), [])


class CliDocFlags(FixtureTree):
    def setUp(self):
        super().setUp()
        write(self.root, "tools/bbb_sim.cpp",
              'args.add_flag("protocol", std::string("adaptive"), "spec");\n'
              'args.add_flag(\n    "reps", std::uint64_t{10}, "replicates");\n')
        write(self.root, "src/bbb/obs/cli.cpp",
              'parser.add_flag("obs", "off", "level");\n')

    def test_unregistered_flag_on_a_continued_line_fires(self):
        write(self.root, "README.md",
              "```sh\n./build/tools/bbb_sim --protocol=adaptive \\\n"
              "    --layout=compact --reps=2\n```\n")
        violations = bbb_lint.check_cli_doc_flags(self.root)
        self.assertEqual(rules_fired(violations), ["cli-doc-flags"])
        self.assertEqual(len(violations), 1)
        self.assertEqual(violations[0][:2], ("README.md", 2))
        self.assertIn("--layout", violations[0][3])

    def test_inline_code_in_a_nested_readme_fires(self):
        write(self.root, "src/bbb/law/README.md",
              "The sim tier used `bbb_sim --tier=law` for this.\n")
        violations = bbb_lint.check_cli_doc_flags(self.root)
        self.assertEqual(rules_fired(violations), ["cli-doc-flags"])

    def test_registered_and_shared_flags_are_clean(self):
        write(self.root, "docs/EXPERIMENTS.md",
              "bbb_sim --protocol='greedy[2]' --reps=4 --obs=counters --help\n")
        self.assertEqual(bbb_lint.check_cli_doc_flags(self.root), [])

    def test_flags_after_the_command_ends_are_not_checked(self):
        write(self.root, "docs/EXPERIMENTS.md",
              "bbb_sim --reps=2 && ctest --output-on-failure\n"
              "`bbb_sim` accepts `--anything` in prose\n"
              "see tools/bbb_sim.cpp --not-a-command\n"
              "bbb_sim --reps=1  # --layout is gone\n"
              "bbb_lint.py --list-rules\n")
        self.assertEqual(bbb_lint.check_cli_doc_flags(self.root), [])


class OrphanHeader(FixtureTree):
    HEADER = "src/bbb/theory/lens.hpp"
    INCLUDE = '#include "bbb/theory/lens.hpp"\n'

    def setUp(self):
        super().setUp()
        write(self.root, self.HEADER, "#pragma once\n")

    def test_header_included_only_by_its_own_cpp_fires(self):
        write(self.root, "src/bbb/theory/lens.cpp", self.INCLUDE)
        violations = bbb_lint.check_orphan_header(self.root)
        self.assertEqual(rules_fired(violations), ["orphan-header"])
        self.assertEqual(violations[0][0], self.HEADER)

    def test_header_included_only_by_a_test_fires(self):
        write(self.root, "tests/theory/lens_test.cpp", self.INCLUDE)
        violations = bbb_lint.check_orphan_header(self.root)
        self.assertEqual(rules_fired(violations), ["orphan-header"])

    def test_header_included_by_a_tool_is_clean(self):
        write(self.root, "tools/bbb_lens.cpp", self.INCLUDE)
        self.assertEqual(bbb_lint.check_orphan_header(self.root), [])

    def test_allow_listed_header_is_clean(self):
        allow = {self.HEADER: "kept as the reference for an upcoming tool"}
        original = bbb_lint.ORPHAN_HEADER_ALLOW
        bbb_lint.ORPHAN_HEADER_ALLOW = allow
        try:
            self.assertEqual(bbb_lint.check_orphan_header(self.root), [])
            allow[self.HEADER] = " "  # a blank reason does not exempt
            self.assertEqual(rules_fired(bbb_lint.check_orphan_header(self.root)),
                             ["orphan-header"])
        finally:
            bbb_lint.ORPHAN_HEADER_ALLOW = original


class OneRunHarness(FixtureTree):
    def test_tier_calling_parallel_map_fires(self):
        write(self.root, "src/bbb/dyn/engine.cpp",
              "auto reps = par::parallel_map<Rep>(pool, n, one);\n")
        violations = bbb_lint.check_one_run_harness(self.root)
        self.assertEqual(rules_fired(violations), ["one-run-harness"])
        self.assertEqual(violations[0][:2], ("src/bbb/dyn/engine.cpp", 1))

    def test_tier_writing_summary_fires(self):
        write(self.root, "src/bbb/law/engine.cpp",
              'obs::JsonLine line("summary", "law");\n')
        violations = bbb_lint.check_one_run_harness(self.root)
        self.assertEqual(rules_fired(violations), ["one-run-harness"])
        self.assertIn("'summary'", violations[0][3])

    def test_heartbeat_is_clean(self):
        write(self.root, "src/bbb/sim/runner.cpp",
              'obs::JsonLine line("heartbeat", "sim");\n'
              "// parallel_map(...) in a comment is prose, not a call\n")
        self.assertEqual(bbb_lint.check_one_run_harness(self.root), [])

    def test_the_harness_itself_is_clean(self):
        write(self.root, "src/bbb/obs/run.hpp",
              "return par::parallel_map<Rec>(pool, count, one);\n"
              'JsonLine line("run_start", tool_);\n')
        write(self.root, "src/bbb/par/parallel_for.hpp",
              "parallel_for(pool, 0, count, body);\n")
        self.assertEqual(bbb_lint.check_one_run_harness(self.root), [])


class BindFromProtocol(FixtureTree):
    def test_driver_calling_the_factory_fires(self):
        write(self.root, "src/bbb/sim/runner.cpp",
              "const auto alloc = core::make_streaming_allocator(spec, n, m);\n")
        violations = bbb_lint.check_bind_from_protocol(self.root)
        self.assertEqual(rules_fired(violations), ["bind-from-protocol"])
        self.assertEqual(violations[0][:2], ("src/bbb/sim/runner.cpp", 1))

    def test_binding_from_a_protocol_is_clean(self):
        write(self.root, "src/bbb/dyn/engine.cpp",
              "const auto alloc = protocol->bind(n, m_hint, layout);\n"
              "// make_rule(spec, n) in a comment is prose, not a call\n")
        self.assertEqual(bbb_lint.check_bind_from_protocol(self.root), [])

    def test_the_registry_is_clean(self):
        write(self.root, "src/bbb/core/protocols/registry.cpp",
              'if (s.name == "one-choice") return make();\n'
              "return make_protocol(spec)->bind(n, m_hint, layout);\n"
              "std::unique_ptr<PlacementRule> make_rule(const std::string& spec,\n")
        self.assertEqual(bbb_lint.check_bind_from_protocol(self.root), [])


class MainEntry(FixtureTree):
    def test_clean_fixture_exits_zero(self):
        self.assertEqual(bbb_lint.main(["bbb_lint.py", self.root]), 0)

    def test_violating_fixture_exits_one(self):
        write(self.root, "src/bbb/core/alloc.cpp", "const auto w = gen();\n")
        self.assertEqual(bbb_lint.main(["bbb_lint.py", self.root]), 1)

    def test_non_repo_root_exits_two(self):
        with tempfile.TemporaryDirectory() as empty:
            self.assertEqual(bbb_lint.main(["bbb_lint.py", empty]), 2)


class RealTree(unittest.TestCase):
    def test_production_tree_is_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        violations = bbb_lint.run_all(repo)
        self.assertEqual(violations, [],
                         "\n".join(f"{p}:{l}: [{r}] {m}"
                                   for p, l, r, m in violations))

    def test_production_registry_families_are_all_found(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        expected = {"one-choice", "greedy", "left", "memory", "threshold",
                    "doubling-threshold", "adaptive", "adaptive-net",
                    "adaptive-total", "stale-adaptive", "skewed-adaptive",
                    "batched", "self-balancing", "cuckoo", "shards["}
        self.assertEqual(set(bbb_lint.registry_families(repo)), expected)


if __name__ == "__main__":
    unittest.main()
