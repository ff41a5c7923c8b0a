#!/usr/bin/env python3
"""Schema and invariant check for walk_tool's timeseries.json export.

Usage: check_timeseries_json.py timeseries.json [more.json ...]

Validates, per file:

  - schema marker "timeseries.v1" and the top-level window geometry:
    scrape_interval >= 1, windows == len(window_end), window_end strictly
    increasing, every full window's end on a scrape_interval boundary,
    final_cycle == the last window's end;
  - every series row names a kind in {counter, gauge, histogram} and is
    dense: exactly one point per window, with point w fields running
    first_window .. first_window + windows - 1 in order;
  - counter points carry nonnegative integer deltas and a nonnegative
    rate_per_kcycle consistent with delta over the window's cycle span;
  - histogram points carry count >= 0; a point with count 0 has no
    quantiles and no exemplar; a nonempty window has sum/p50/p99 and an
    exemplar with integer trace/span ids and a finite value >= the
    window's p99 (the exemplar is the window's worst sample);
  - annotations are sorted by cycle and carry a kind;
  - incidents reference an exported series id, have open <= close within
    the window range, severity >= 0, and closed as a bool.

Exit status: 0 if all files pass, 1 otherwise (each violation printed).
"""

import json
import math
import sys

KINDS = {"counter", "gauge", "histogram"}


def check_file(path):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    with open(path) as f:
        doc = json.load(f)

    if doc.get("schema") != "timeseries.v1":
        err(f"schema is {doc.get('schema')!r}, want 'timeseries.v1'")
        return errors
    for section in ("scrape_interval", "first_window", "windows",
                    "final_cycle", "window_end", "series", "annotations",
                    "incidents"):
        if section not in doc:
            err(f"missing top-level section {section!r}")
    if errors:
        return errors

    interval = doc["scrape_interval"]
    first = doc["first_window"]
    windows = doc["windows"]
    ends = doc["window_end"]
    if not isinstance(interval, int) or interval < 1:
        err(f"scrape_interval {interval!r} must be a positive integer")
        return errors
    if windows != len(ends):
        err(f"windows {windows} != len(window_end) {len(ends)}")
        return errors
    prev = first * interval
    for w, end in enumerate(ends):
        # Every window but the last closes exactly on a boundary; the
        # last closes wherever Finish() was driven to, and may be
        # zero-width when the run ends exactly on a boundary (it exists
        # to capture updates landing at the final cycle).
        if w + 1 < len(ends):
            if end != (first + w + 1) * interval:
                err(f"window_end[{w}] = {end} is not the boundary "
                    f"{(first + w + 1) * interval}")
            if end <= prev:
                err(f"window_end[{w}] = {end} does not advance past {prev}")
        elif end < prev:
            err(f"final window_end {end} regresses below {prev}")
        prev = end
    if ends and doc["final_cycle"] != ends[-1]:
        err(f"final_cycle {doc['final_cycle']} != last window end "
            f"{ends[-1]}")

    series_ids = set()
    for i, series in enumerate(doc["series"]):
        name = series.get("name")
        label = f"series[{i}] ({name})"
        if not name:
            err(f"series[{i}]: missing name")
            continue
        labels = series.get("labels", {})
        rendered = name
        if labels:
            inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            rendered = f"{name}{{{inner}}}"
        series_ids.add(rendered)
        kind = series.get("kind")
        if kind not in KINDS:
            err(f"{label}: kind {kind!r} not in {sorted(KINDS)}")
            continue
        points = series.get("points", [])
        if len(points) != windows:
            err(f"{label}: {len(points)} points for {windows} windows "
                f"(series must be dense)")
            continue
        for w, point in enumerate(points):
            plabel = f"{label} point {w}"
            if point.get("w") != first + w:
                err(f"{plabel}: w = {point.get('w')}, want {first + w}")
            if kind == "counter":
                delta = point.get("delta")
                if not isinstance(delta, int) or delta < 0:
                    err(f"{plabel}: delta {delta!r} must be a "
                        f"nonnegative integer")
                    continue
                span = ends[w] - (first + w) * interval
                rate = point.get("rate_per_kcycle")
                want = delta * 1000.0 / span if span > 0 else 0.0
                if rate is None or abs(rate - want) > 1e-6 * max(want, 1):
                    err(f"{plabel}: rate_per_kcycle {rate!r} inconsistent "
                        f"with delta {delta} over {span} cycles "
                        f"(want {want})")
            elif kind == "gauge":
                value = point.get("value")
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    err(f"{plabel}: gauge value {value!r} not finite")
            else:
                count = point.get("count")
                if not isinstance(count, int) or count < 0:
                    err(f"{plabel}: count {count!r} must be a "
                        f"nonnegative integer")
                    continue
                if count == 0:
                    for field in ("sum", "p50", "p99", "exemplar"):
                        if field in point:
                            err(f"{plabel}: empty window carries "
                                f"{field!r}")
                    continue
                for field in ("sum", "p50", "p99"):
                    if field not in point:
                        err(f"{plabel}: nonempty window missing "
                            f"{field!r}")
                exemplar = point.get("exemplar")
                if exemplar is None:
                    err(f"{plabel}: nonempty window has no exemplar")
                    continue
                for field in ("trace", "span"):
                    if not isinstance(exemplar.get(field), int):
                        err(f"{plabel}: exemplar field {field!r} is "
                            f"{exemplar.get(field)!r}, want an integer")
                value = exemplar.get("value")
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    err(f"{plabel}: exemplar value {value!r} not finite")
                elif "p99" in point and value < point["p99"] - 1e-9:
                    err(f"{plabel}: exemplar value {value} below the "
                        f"window p99 {point['p99']} (exemplar must be "
                        f"the worst sample)")

    prev_cycle = 0
    for i, note in enumerate(doc["annotations"]):
        label = f"annotations[{i}]"
        if not note.get("kind"):
            err(f"{label}: missing kind")
        cycle = note.get("cycle")
        if not isinstance(cycle, int) or cycle < 0:
            err(f"{label}: cycle {cycle!r} must be a nonnegative integer")
            continue
        if cycle < prev_cycle:
            err(f"{label}: cycle regresses ({prev_cycle} -> {cycle})")
        prev_cycle = cycle

    for i, incident in enumerate(doc["incidents"]):
        label = f"incidents[{i}]"
        series = incident.get("series")
        if series not in series_ids:
            err(f"{label}: series {series!r} not in the exported set")
        open_w = incident.get("open_window")
        close_w = incident.get("close_window")
        if not isinstance(open_w, int) or not isinstance(close_w, int):
            err(f"{label}: open/close windows must be integers")
            continue
        if not (first <= open_w <= close_w < first + windows):
            err(f"{label}: window range [{open_w}, {close_w}] outside "
                f"[{first}, {first + windows - 1}]")
        if not isinstance(incident.get("closed"), bool):
            err(f"{label}: closed must be a bool")
        severity = incident.get("severity")
        if not isinstance(severity, (int, float)) or severity < 0:
            err(f"{label}: severity {severity!r} must be >= 0")

    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            failures += 1
            for e in errors:
                print(f"TIMESERIES CHECK FAIL: {e}", file=sys.stderr)
        else:
            print(f"ok: {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
