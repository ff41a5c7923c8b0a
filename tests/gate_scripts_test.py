#!/usr/bin/env python3
"""Tests of the CI gate scripts and the profile report on canned inputs.

Usage: gate_scripts_test.py REPO_ROOT

scripts/perf_ab_gate.py's decision runs on canned perfbench result lines,
so no perfbench run is needed; scripts/check_bench_golden.py runs on a
canned BENCH record and golden; scripts/sigprof_report.py runs on a
recorded sample file and an nm symbol listing.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.abspath(sys.argv.pop(1))
SCRIPTS = os.path.join(ROOT, "scripts")
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

spec = importlib.util.spec_from_file_location(
    "perf_ab_gate", os.path.join(SCRIPTS, "perf_ab_gate.py"))
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

# BENCHMARK.json's end-to-end metrics, with its bounds.
METRICS = [
    {"name": "steps_per_s", "unit": "steps/s", "better": "higher",
     "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "sim_cycles", "unit": "cycles", "better": "lower",
     "bound": 0.04},
]

# A result line as perfbench prints it.
LINE = json.loads(
    '{"correct": true, "attempted": 23, "failed": 0, "metrics": {'
    '"steps_per_s": {"value": 393000.5, "unit": "steps/s"}, '
    '"setup_s": {"value": 1.5, "unit": "s"}, '
    '"peak_rss_mb": {"value": 120.25, "unit": "MB"}, '
    '"sim_cycles": {"value": 81234567, "unit": "cycles"}, '
    '"failed_frac": {"value": 0, "unit": "fraction"}}}')
WORKLOAD = "cluster_deepwalk"


def line(**scale):
    """LINE with each named metric multiplied by its factor."""
    result = copy.deepcopy(LINE)
    for metric, factor in scale.items():
        result["metrics"][metric]["value"] *= factor
    return result


def decide(change, parent=None, changed=False):
    """The gate over one workload's pairs: seed 1 + i for the i-th line."""
    parent = parent or [line() for _ in change]
    runs = {WORKLOAD: {
        "parent": [gate.Run(1 + i, r, True) for i, r in enumerate(parent)],
        "change": [r if isinstance(r, gate.Run) else gate.Run(1 + i, r, True)
                   for i, r in enumerate(change)],
    }}
    return gate.decide(METRICS, runs, changed)


class PerfAbGateTest(unittest.TestCase):
    def assertFailsNaming(self, failures, *words):
        self.assertTrue(failures, "the gate passed")
        self.assertTrue(any(all(w in f for w in words) for f in failures),
                        failures)

    def test_equal_sides_pass(self):
        rows, failures = decide([line(), line(), line()])
        self.assertEqual(failures, [])
        self.assertEqual([(r[0], r[1], r[4], r[6]) for r in rows],
                         [(WORKLOAD, m["name"], 1.0, "ok") for m in METRICS])

    def test_steps_per_s_30_percent_lower_fails(self):
        rows, failures = decide([line(steps_per_s=0.7)] * 3)
        self.assertFailsNaming(failures, WORKLOAD, "steps_per_s")
        self.assertIn((WORKLOAD, "steps_per_s", "FAIL"),
                      [(r[0], r[1], r[6]) for r in rows])

    def test_setup_s_20_percent_higher_passes(self):
        _, failures = decide([line(setup_s=1.2)] * 3)
        self.assertEqual(failures, [])

    def test_peak_rss_6_percent_higher_fails(self):
        _, failures = decide([line(peak_rss_mb=1.06)] * 3)
        self.assertFailsNaming(failures, WORKLOAD, "peak_rss_mb")

    def test_sim_cycles_differing_at_one_seed_fails(self):
        moved = line()
        moved["metrics"]["sim_cycles"]["value"] += 1
        _, failures = decide([line(), moved, line()])
        self.assertFailsNaming(failures, WORKLOAD, "sim_cycles", "seed 2")

    def test_larger_failed_share_fails(self):
        failing = line()
        failing["failed"] = 1
        _, failures = decide([line(), line(), failing])
        self.assertFailsNaming(failures, WORKLOAD, "failed")

    def test_seed_1_run_without_golden_match_fails(self):
        _, failures = decide([gate.Run(1, line(), False), line(), line()])
        self.assertFailsNaming(failures, WORKLOAD, "golden")

    def test_change_run_without_result_line_fails(self):
        _, failures = decide([line(), gate.Run(2, None, False), line()])
        self.assertFailsNaming(failures, WORKLOAD, "seed-2")

    def test_changed_benchmark_skips_the_comparison(self):
        rows, failures = decide([line(steps_per_s=0.5)], changed=True)
        self.assertEqual((rows, failures), ([], []))
        # The change's seed-1 correctness check still runs.
        _, failures = decide([gate.Run(1, line(), False)], changed=True)
        self.assertFailsNaming(failures, WORKLOAD, "golden")


class CheckBenchGoldenTest(unittest.TestCase):
    RECORD = {"bench": "demo", "context": {"scale_shift": 11},
              "rows": [{"strategy": "a", "steps": 10},
                       {"strategy": "b", "steps": 12}]}
    GOLDEN = {"bench": "demo", "context": {"scale_shift": 11},
              "num_rows": 2, "row_ranges": {"steps": [5, 20]}}

    def check(self, record):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("record", record), ("golden", self.GOLDEN)):
                paths.append(os.path.join(tmp, name + ".json"))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            return subprocess.run(
                [sys.executable,
                 os.path.join(SCRIPTS, "check_bench_golden.py")] + paths,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_matching_record_passes(self):
        done = self.check(self.RECORD)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_renamed_column_fails_naming_the_field(self):
        record = copy.deepcopy(self.RECORD)
        for row in record["rows"]:
            row["walk_steps"] = row.pop("steps")
        done = self.check(record)
        self.assertEqual(done.returncode, 1, done.stdout)
        self.assertIn("'steps'", done.stderr)


class SigprofReportTest(unittest.TestCase):
    # `nm -C -S --defined-only` lines; main has no size, so it extends to
    # the next text symbol, and the data symbol is not text.
    SYMBOLS = """\
0000000000001000 0000000000000100 T lightrw::hwsim::DramChannel::AccessMany(unsigned long, unsigned int, unsigned int)
0000000000001100 0000000000000080 T lightrw::distributed::ClusterSim::Step(unsigned long, unsigned long)
0000000000001180 0000000000000040 t lightrw::core::PathRing::Walk()
00000000000011c0 T main
0000000000002000 0000000000000010 D lightrw::graph::kTable
0000000000003000 0000000000000020 T lightrw::perfbench::Run()
"""
    BASE = 0x555500000000
    OFFSETS = [0x1000, 0x1010, 0x10ff, 0x1080, 0x1100, 0x117f, 0x1180,
               0x2004, 0x3010]

    def report(self, samples, runs):
        with tempfile.TemporaryDirectory() as tmp:
            symbols = os.path.join(tmp, "symbols.txt")
            with open(symbols, "w") as f:
                f.write(self.SYMBOLS)
            path = os.path.join(tmp, "samples.txt")
            with open(path, "w") as f:
                f.write(samples)
            return subprocess.run(
                [sys.executable, os.path.join(SCRIPTS, "sigprof_report.py"),
                 symbols, path, runs],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_samples_land_in_functions_and_layers(self):
        pcs = [self.BASE + offset for offset in self.OFFSETS]
        pcs.append(0x7f0000001234)  # a shared library
        done = self.report("base %#x\n" % self.BASE +
                           "".join("%#x\n" % pc for pc in pcs), "2")
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.splitlines()
        self.assertEqual(lines[0], "10 samples of 1 ms CPU, 2 run(s): "
                         "ms below are per run")
        for want in (
                "  40.0%    2.0  lightrw::hwsim::DramChannel::AccessMany(",
                "  20.0%    1.0  lightrw::distributed::ClusterSim::Step(",
                "  10.0%    0.5  lightrw::core::PathRing::Walk()",
                "  10.0%    0.5  main",
                "  10.0%    0.5  (outside the binary)",
                "  40.0%    2.0  hwsim", "  20.0%    1.0  distributed",
                "  10.0%    0.5  lightrw", "  10.0%    0.5  other",
                "  10.0%    0.5  outside", "  10.0%    0.5  perfbench"):
            self.assertTrue(any(l.startswith(want) for l in lines),
                            want + " not in:\n" + done.stdout)

    def test_file_without_base_line_fails(self):
        done = self.report("0x1000\n", "1")
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("base", done.stderr)


if __name__ == "__main__":
    unittest.main()
