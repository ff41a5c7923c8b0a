#!/usr/bin/env python3
"""Symbolizes the samples of scripts/sigprof.c and prints where time went.

Usage: sigprof_report.py BINARY SAMPLES [RUNS]

BINARY is the profiled executable (read with `nm -C -S --defined-only`)
or a saved listing of that command's output. SAMPLES is the file the
sampler wrote: "base 0x..." then one program counter per line, each
sample one millisecond of CPU time. RUNS divides the times, to give CPU
ms per engine run; the profile covers the whole process, set-up
included.

Prints the top functions with their share of the samples and CPU ms,
then CPU ms for each src/ layer. A function's layer is the src/
directory of the first lightrw:: namespace in its name (lightrw::core
is src/lightrw; a lightrw:: name outside any layer namespace is
src/common), or "perfbench" for the benchmark harness. Names with no
lightrw:: namespace count as "other", and samples outside the binary's
text (shared libraries) as "outside".
"""

import bisect
import collections
import os
import re
import subprocess
import sys

TOP_FUNCTIONS = 25
SAMPLE_MS = 1.0
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
# Namespaces whose name is not their src/ directory's.
NAMESPACE_DIRS = {"core": "lightrw"}
HARNESS = "perfbench"


def read_symbols(path):
    """Sorted (start, end, name) text symbols of `path`."""
    with open(path, "rb") as f:
        is_elf = f.read(4) == b"\x7fELF"
    if is_elf:
        listing = subprocess.run(
            ["nm", "-C", "-S", "--defined-only", path], check=True,
            stdout=subprocess.PIPE, text=True).stdout
    else:
        with open(path) as f:
            listing = f.read()
    symbols = []
    for line in listing.splitlines():
        # "start kind name", or "start size kind name" with -S.
        fields = line.split(maxsplit=2)
        if len(fields) == 3 and len(fields[1]) == 1:
            start, kind, name = fields
            size = None
        else:
            fields = line.split(maxsplit=3)
            if len(fields) != 4 or len(fields[2]) != 1:
                continue
            start, size, kind, name = fields
            size = int(size, 16)
        if kind in "tTwW":
            symbols.append([int(start, 16), size, name])
    symbols.sort()
    # A symbol without a size extends to the next one.
    spans = []
    for i, (start, size, name) in enumerate(symbols):
        if size is None:
            size = (symbols[i + 1][0] - start) if i + 1 < len(symbols) else 1
        spans.append((start, start + max(size, 1), name))
    return spans


def read_samples(path):
    """(load base, [program counters]) from the sampler's file."""
    with open(path) as f:
        lines = f.read().split()
    if len(lines) < 2 or lines[0] != "base":
        raise ValueError(path + ": expected 'base 0x...' first")
    return int(lines[1], 16), [int(pc, 16) for pc in lines[2:]]


def layer_of(name, layers):
    match = re.search(r"lightrw::(\w+)", name)
    if match is None:
        return "other"
    namespace = NAMESPACE_DIRS.get(match.group(1), match.group(1))
    return namespace if namespace in layers | {HARNESS} else "common"


def report(spans, base, pcs, runs, layers):
    """The report's lines."""
    starts = [start for start, _, _ in spans]
    functions = collections.Counter()
    for pc in pcs:
        i = bisect.bisect_right(starts, pc - base) - 1
        if i >= 0 and pc - base < spans[i][1]:
            functions[spans[i][2]] += 1
        else:
            functions["(outside the binary)"] += 1
    total = len(pcs)
    per_run = SAMPLE_MS / runs
    lines = ["%d samples of %.0f ms CPU, %g run(s): ms below are per run"
             % (total, SAMPLE_MS, runs),
             "", "  share    ms  function"]
    for name, count in functions.most_common(TOP_FUNCTIONS):
        lines.append("%6.1f%% %6.1f  %s" % (100.0 * count / total,
                                           count * per_run, name[:110]))
    by_layer = collections.Counter()
    for name, count in functions.items():
        layer = ("outside" if name == "(outside the binary)"
                 else layer_of(name, layers))
        by_layer[layer] += count
    lines += ["", "  share    ms  layer"]
    for layer, count in by_layer.most_common():
        lines.append("%6.1f%% %6.1f  %s" % (100.0 * count / total,
                                           count * per_run, layer))
    return lines


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    runs = float(argv[3]) if len(argv) == 4 else 1.0
    try:
        base, pcs = read_samples(argv[2])
    except ValueError as error:
        print("sigprof_report: %s" % error, file=sys.stderr)
        return 1
    if not pcs or runs <= 0:
        print("sigprof_report: no samples, or RUNS not above 0",
              file=sys.stderr)
        return 1
    layers = {d for d in os.listdir(SRC)
              if os.path.isdir(os.path.join(SRC, d))}
    print("\n".join(report(read_symbols(argv[1]), base, pcs, runs, layers)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
