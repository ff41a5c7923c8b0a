#!/usr/bin/env python3
"""Perf/behaviour regression gate for BENCH_*.json files.

Usage: check_bench_golden.py BENCH_x.json bench/golden/x.json

The golden file pins the expected shape of one bench's output:

  {
    "bench": "name",            # must equal the record's bench name
    "context": {...},           # every listed key must match exactly
    "num_rows": N,              # exact row count
    "row_ranges": {             # every row that has the field must
      "field": [min, max]       # satisfy it, and at least one row must
    },                          # have it
    "row_checks": [             # targeted expectations
      {"where": {"field": value, ...},     # selects matching rows
       "expect": {"field": [min, max]}}    # must hold for all of them
    ]
  }

Ranges are inclusive and intentionally loose: they catch order-of-
magnitude perf regressions and broken overload behaviour, not benign
modelling refinements. A legitimate change that moves a metric outside
its range should update the golden alongside the code, with the reason
in the commit message.
"""

import json
import sys


def in_range(value, lo_hi):
    lo, hi = lo_hi
    return lo <= value <= hi


def row_label(row):
    keys = ("strategy", "boards", "load_multiple", "deadline_cycles",
            "degrade_enabled")
    parts = [f"{k}={row[k]}" for k in keys if k in row]
    return "{" + ", ".join(parts) + "}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        record = json.load(f)
    with open(argv[2]) as f:
        golden = json.load(f)

    errors = []
    if record.get("bench") != golden["bench"]:
        errors.append(
            f"bench name: got {record.get('bench')!r}, "
            f"want {golden['bench']!r}")

    context = record.get("context", {})
    for key, want in golden.get("context", {}).items():
        if context.get(key) != want:
            errors.append(
                f"context.{key}: got {context.get(key)!r}, want {want!r}")

    rows = record.get("rows", [])
    if "num_rows" in golden and len(rows) != golden["num_rows"]:
        errors.append(
            f"row count: got {len(rows)}, want {golden['num_rows']}")

    for field, rng in golden.get("row_ranges", {}).items():
        if not any(field in row for row in rows):
            errors.append(f"row_ranges field {field!r}: no row has it")
        for row in rows:
            if field in row and not in_range(row[field], rng):
                errors.append(
                    f"{row_label(row)} {field}={row[field]} outside "
                    f"[{rng[0]}, {rng[1]}]")

    for check in golden.get("row_checks", []):
        where = check["where"]
        matched = [
            r for r in rows
            if all(r.get(k) == v for k, v in where.items())
        ]
        if not matched:
            errors.append(f"no row matches where={where}")
            continue
        for row in matched:
            for field, rng in check["expect"].items():
                if field not in row:
                    errors.append(
                        f"{row_label(row)} has no field {field!r}")
                elif not in_range(row[field], rng):
                    errors.append(
                        f"{row_label(row)} {field}={row[field]} outside "
                        f"[{rng[0]}, {rng[1]}]")

    if errors:
        print(f"GOLDEN CHECK FAILED: {argv[1]} vs {argv[2]}",
              file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"OK: {argv[1]} within golden ranges ({argv[2]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
