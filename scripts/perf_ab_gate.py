#!/usr/bin/env python3
"""Host-speed gate: perfbench in a parent tree against this tree.

Usage: perf_ab_gate.py PARENT_TREE

The change tree is the one holding this script. For every workload in
BENCHMARK.json the gate runs PAIRS same-seed pairs of

    python3 <tree>/perfbench/run.py --workload W --seed S \
        --seconds SECONDS --trace 0

Pair i uses seed 1 + i on both sides; the parent runs first in even
pairs, so neither side always runs on a warmer or a busier host. Pair i
of every workload runs before pair i + 1 of any, so the pairs of one
workload spread over the whole gate and a noisy minute on the host
reaches at most one or two of them.

The gate fails when, for any workload:
  - steps_per_s, setup_s or peak_rss_mb (every end-to-end metric but
    sim_cycles) has a change median worse than the parent median by more
    than its BENCHMARK.json bound, in the direction its `better` gives;
  - sim_cycles differs between the sides at any seed (a host-only change
    keeps it exact, which is stricter than its bound);
  - the change's failed share (failed over attempted, summed over its
    runs) exceeds the parent's;
  - the change's seed-1 run does not print "(matches golden)", or its
    result line is not "correct": true with "failed": 0;
  - a change-side run exits non-zero or prints no result line.
A parent run that fails is left out of the parent's medians.

When perfbench/ or BENCHMARK.json differ between the trees, the sides
measure different things: the comparison is skipped, and only the
change's seed-1 correctness check runs.

Prints one row per workload and metric (parent median, change median,
ratio, bound, verdict), then every reason the gate failed.
Exit codes: 0 pass, 1 fail, 2 usage.
"""

import collections
import hashlib
import json
import os
import statistics
import subprocess
import sys

# Five pairs of 10 s runs, about nine minutes for the four workloads
# (each run adds a few seconds of set-up and correctness runs to its
# --seconds). With three pairs, the parent against an identical copy
# failed one gate run in four on a shared 4-vCPU host: neighbours took
# vCPUs from cycle_node2vec's four threads during two of the change's
# three runs, and its median fell to 0.755x the parent's.
PAIRS = 5
SECONDS = 10

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One perfbench invocation: `result` is its parsed result line, or None
# when it exited non-zero or printed none; `golden` is whether its
# fingerprint matched the recorded one.
Run = collections.namedtuple("Run", "seed result golden")


def benchmark_digest(tree):
    """sha256 over BENCHMARK.json and every file under perfbench/."""
    paths = [os.path.join(tree, "BENCHMARK.json")]
    for directory, dirs, names in os.walk(os.path.join(tree, "perfbench")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(directory, name) for name in sorted(names)]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, tree).encode() + b"\0")
        if os.path.isfile(path):
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_perfbench(tree, workload, seed):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    result = None
    if done.returncode == 0:
        try:
            result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        except ValueError:
            pass
    if not isinstance(result, dict):
        sys.stderr.write(done.stdout)
        result = None
    return Run(seed, result, "(matches golden)" in done.stdout)


def value(run, metric):
    return run.result["metrics"][metric]["value"]


def median(runs, metric):
    return statistics.median(value(r, metric) for r in runs) if runs else None


def failed_share(runs):
    attempted = sum(run.result["attempted"] for run in runs)
    return sum(run.result["failed"] for run in runs) / max(attempted, 1)


def check_change(workload, runs, failures):
    """The change-side checks that hold whether or not the sides compare."""
    for run in runs:
        if run.result is None:
            failures.append(f"{workload}: the change's seed-{run.seed} run "
                            "failed or printed no result line")
        if run.seed == 1 and not run.golden:
            failures.append(f"{workload}: the change's seed-1 fingerprint "
                            "does not match its golden")
        if run.seed == 1 and run.result is not None and not (
                run.result["correct"] is True and run.result["failed"] == 0):
            failures.append(f"{workload}: the change's seed-1 result line "
                            "is not correct with 0 failed")


def compare(workload, metrics, parent, change, rows, failures):
    """Rows and failures of one workload's parent-vs-change comparison."""
    parent = [run for run in parent if run.result is not None]
    change = [run for run in change if run.result is not None]
    for metric in metrics:
        name = metric["name"]
        p = median(parent, name)
        c = median(change, name)
        if p is None or c is None:
            rows.append((workload, name, p, c, None, metric["bound"], "n/a"))
            continue
        ratio = c / p if p else (1.0 if c == p else float("inf"))
        if name == "sim_cycles":
            bound = "exact"
            parent_by_seed = {r.seed: value(r, name) for r in parent}
            differs = [(r.seed, parent_by_seed[r.seed], value(r, name))
                       for r in change
                       if r.seed in parent_by_seed
                       and value(r, name) != parent_by_seed[r.seed]]
            for seed, want, got in differs:
                failures.append(f"{workload} sim_cycles: {got} at seed "
                                f"{seed}, the parent's is {want}")
            worse = bool(differs)
        else:
            bound = metric["bound"]
            if metric["better"] == "higher":
                worse = ratio < 1.0 - bound
            else:
                worse = ratio > 1.0 + bound
            if worse:
                failures.append(
                    f"{workload} {name}: change median {c:.6g} is "
                    f"{ratio:.3f}x the parent's {p:.6g} ({metric['better']} "
                    f"is better, bound {bound})")
        rows.append((workload, name, p, c, ratio, bound,
                     "FAIL" if worse else "ok"))
    if parent and change and failed_share(change) > failed_share(parent):
        failures.append(f"{workload}: the change failed "
                        f"{failed_share(change):.3g} of its runs' attempts, "
                        f"the parent {failed_share(parent):.3g}")


def decide(metrics, runs, benchmark_changed):
    """The gate's verdict over parsed runs, without running anything.

    metrics: BENCHMARK.json's end_to_end list. runs: workload ->
    {"parent": [Run], "change": [Run]}. Returns (rows, failures): rows are
    (workload, metric, parent median, change median, ratio, bound,
    verdict) tuples, empty when the benchmark changed; failures name the
    workload and what failed. The gate passes when failures is empty.
    """
    rows, failures = [], []
    for workload, sides in runs.items():
        check_change(workload, sides["change"], failures)
        if not benchmark_changed:
            compare(workload, metrics, sides["parent"], sides["change"],
                    rows, failures)
    return rows, failures


def number(x):
    if x is None:
        return "n/a"
    if isinstance(x, int) or abs(x) >= 1000:
        return f"{x:.0f}"
    return f"{x:.4g}"


def main(argv):
    if len(argv) != 2 or not os.path.isdir(argv[1]):
        print(__doc__, file=sys.stderr)
        return 2
    parent_tree = os.path.abspath(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    changed = benchmark_digest(parent_tree) != benchmark_digest(ROOT)
    if changed:
        print("perfbench/ or BENCHMARK.json differ between the trees: "
              "the sides measure different things, so the comparison is "
              "skipped; only the change's seed-1 correctness check runs")

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(1 if changed else PAIRS):
        order = ["change"] if changed else (
            ["parent", "change"] if i % 2 == 0 else ["change", "parent"])
        for workload in workloads:
            for side in order:
                tree = parent_tree if side == "parent" else ROOT
                run = run_perfbench(tree, workload, 1 + i)
                runs[workload][side].append(run)
                rate = value(run, "steps_per_s") if run.result else None
                print(f"{workload} {side} seed {1 + i}: steps_per_s "
                      f"{number(rate)}", file=sys.stderr, flush=True)

    rows, failures = decide(benchmark["end_to_end"], runs, changed)
    if rows:
        print(f"{'workload':<24} {'metric':<12} {'parent':>12} "
              f"{'change':>12} {'ratio':>7} {'bound':>6}  verdict")
    for workload, metric, p, c, ratio, bound, verdict in rows:
        ratio = "n/a" if ratio is None else f"{ratio:.3f}"
        print(f"{workload:<24} {metric:<12} {number(p):>12} "
              f"{number(c):>12} {ratio:>7} {bound!s:>6}  {verdict}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"perf gate: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
