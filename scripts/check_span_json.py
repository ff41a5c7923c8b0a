#!/usr/bin/env python3
"""Schema and invariant check for walk_tool's spans.json export.

Usage: check_span_json.py spans.json [more.json ...]

Validates, per file:

  - top-level sections: config, counters, summaries, spans (attribution
    and burn_alerts are present when written by walk_tool);
  - every span row has the required fields with the right JSON types;
  - parent/child integrity: a span's parent is 0 (trace root) or the id
    of another span in the SAME trace that was opened earlier (parents
    have a lower seq than their children);
  - per-trace seq values are unique and exported in increasing order
    (the canonical (trace, seq) sort the determinism gate relies on);
  - span ids are nonzero and unique across the document;
  - intervals are well-formed: end >= start for every closed span;
  - every summary's trace/outcome fields are present, and every breached
    entry in the attribution report names a dominant component;
  - the membership log (when present) is a legal epoch sequence: epochs
    are 1..N with no gaps, cycles nondecreasing, and every transition an
    edge of the board state machine (alive->dead, spare->rebuilding|dead,
    rebuilding->alive|dead).

Exit status: 0 if all files pass, 1 otherwise (each violation printed).
"""

import json
import sys

SPAN_FIELDS = {
    "trace": int,
    "span": int,
    "parent": int,
    "seq": int,
    "name": str,
    "category": str,
    "board": int,
    "start": int,
    "end": int,
    "open": bool,
}

SUMMARY_FIELDS = {
    "trace": int,
    "start": int,
    "end": int,
    "breached": bool,
    "outcome": str,
}

MEMBERSHIP_FIELDS = {
    "epoch": int,
    "cycle": int,
    "board": int,
    "from": str,
    "to": str,
}

BOARD_STATES = {"alive", "dead", "rebuilding", "spare"}

# Legal edges of the membership state machine (reliability/membership.h).
MEMBERSHIP_EDGES = {
    ("alive", "dead"),
    ("spare", "rebuilding"),
    ("spare", "dead"),
    ("rebuilding", "alive"),
    ("rebuilding", "dead"),
}


def check_file(path):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    with open(path) as f:
        doc = json.load(f)

    for section in ("config", "counters", "summaries", "spans"):
        if section not in doc:
            err(f"missing top-level section {section!r}")
    if errors:
        return errors

    spans = doc["spans"]
    seen_ids = set()
    by_trace = {}
    for i, span in enumerate(spans):
        label = f"spans[{i}]"
        for field, kind in SPAN_FIELDS.items():
            if field not in span:
                err(f"{label}: missing field {field!r}")
            elif not isinstance(span[field], kind):
                err(f"{label}: field {field!r} is "
                    f"{type(span[field]).__name__}, want {kind.__name__}")
        if errors:
            continue
        if span["span"] == 0:
            err(f"{label}: span id is 0 (reserved for 'no span')")
        if span["span"] in seen_ids:
            err(f"{label}: duplicate span id {span['span']}")
        seen_ids.add(span["span"])
        if not span["open"] and span["end"] < span["start"]:
            err(f"{label}: closed span ends at {span['end']} before its "
                f"start {span['start']}")
        by_trace.setdefault(span["trace"], []).append(span)

    prev_trace = None
    for i, span in enumerate(spans):
        if prev_trace is not None and span["trace"] < prev_trace:
            err(f"spans[{i}]: trace order regresses "
                f"({prev_trace} -> {span['trace']}); export must be "
                f"sorted by (trace, seq)")
        prev_trace = span["trace"]

    for trace, rows in by_trace.items():
        seqs = [s["seq"] for s in rows]
        if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
            err(f"trace {trace}: seq values not strictly increasing "
                f"in export order: {seqs}")
        ids_before = {}
        for s in rows:
            if s["parent"] != 0:
                if s["parent"] not in ids_before:
                    err(f"trace {trace} span {s['span']}: parent "
                        f"{s['parent']} is not an earlier span of the "
                        f"same trace")
                elif ids_before[s["parent"]] >= s["seq"]:
                    err(f"trace {trace} span {s['span']}: parent seq "
                        f"{ids_before[s['parent']]} not < child seq "
                        f"{s['seq']}")
            ids_before[s["span"]] = s["seq"]

    for i, summary in enumerate(doc["summaries"]):
        label = f"summaries[{i}]"
        for field, kind in SUMMARY_FIELDS.items():
            if field not in summary:
                err(f"{label}: missing field {field!r}")
            elif not isinstance(summary[field], kind):
                err(f"{label}: field {field!r} is "
                    f"{type(summary[field]).__name__}, want "
                    f"{kind.__name__}")

    attribution = doc.get("attribution")
    if attribution is not None:
        for i, q in enumerate(attribution.get("breached", [])):
            label = f"attribution.breached[{i}]"
            if not q.get("dominant"):
                err(f"{label}: breached query (trace "
                    f"{q.get('trace')}) names no dominant component")
            if not q.get("outcome"):
                err(f"{label}: breached query has no outcome")

    for alert in doc.get("burn_alerts", []):
        if alert.get("state") not in ("fired", "cleared"):
            err(f"burn alert at cycle {alert.get('cycle')}: state "
                f"{alert.get('state')!r} not fired/cleared")

    membership = doc.get("membership")
    if membership is not None:
        prev_cycle = 0
        for i, t in enumerate(membership):
            label = f"membership[{i}]"
            for field, kind in MEMBERSHIP_FIELDS.items():
                if field not in t:
                    err(f"{label}: missing field {field!r}")
                elif not isinstance(t[field], kind):
                    err(f"{label}: field {field!r} is "
                        f"{type(t[field]).__name__}, want {kind.__name__}")
            if errors:
                continue
            if t["epoch"] != i + 1:
                err(f"{label}: epoch {t['epoch']}, want {i + 1} "
                    f"(epochs bump by exactly one per transition)")
            if t["cycle"] < prev_cycle:
                err(f"{label}: cycle regresses "
                    f"({prev_cycle} -> {t['cycle']})")
            prev_cycle = t["cycle"]
            if t["board"] < 0:
                err(f"{label}: negative board id {t['board']}")
            edge = (t["from"], t["to"])
            if t["from"] not in BOARD_STATES or t["to"] not in BOARD_STATES:
                err(f"{label}: unknown board state in edge {edge}")
            elif edge not in MEMBERSHIP_EDGES:
                err(f"{label}: illegal transition {t['from']!r} -> "
                    f"{t['to']!r}")

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
                print(f"SPAN CHECK FAIL: {e}", file=sys.stderr)
        else:
            print(f"ok: {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
