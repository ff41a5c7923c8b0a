#!/bin/sh
# Exit-code contract of walk_tool:
#   0  success (including --help)
#   1  usage, configuration, or I/O error; also a failed chaos campaign
#   2  service run finished but breached an --slo-max-* threshold
#   3  run finished but produced partial data (lost or failed walks)
# Every non-zero path must print a one-line reason on stderr.
#
# Usage: walk_tool_exit_test.sh <path-to-walk_tool>
set -u

TOOL="${1:?usage: $0 <path-to-walk_tool>}"
fails=0

expect() {
  desc="$1"
  want="$2"
  shift 2
  err=$("$@" 2>&1 >/dev/null)
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: want exit $want, got $got" >&2
    fails=$((fails + 1))
  elif [ "$want" -ne 0 ] && [ -z "$err" ]; then
    echo "FAIL: $desc: exit $got but no stderr reason" >&2
    fails=$((fails + 1))
  else
    echo "ok: $desc (exit $got)"
  fi
}

# Small deterministic base invocation shared by the success cases.
BASE="--rmat_scale 8 --app deepwalk --length 8 --queries 64 --seed 42"

expect "help" 0 "$TOOL" --help
expect "cpu run succeeds" 0 "$TOOL" --engine cpu $BASE
expect "service run succeeds" 0 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 0.2
expect "unknown flag" 1 "$TOOL" --bogus-flag
expect "malformed flag value" 1 "$TOOL" --length abc
expect "unknown engine" 1 "$TOOL" --engine bogus $BASE
expect "unknown app" 1 "$TOOL" --app bogus --rmat_scale 8
# App parameters outside what the weight functions take are rejected
# before the app is built: 256/p must round to a nonzero scale.
expect "node2vec p too large" 1 "$TOOL" $BASE --app node2vec --p 1000
expect "node2vec zero q" 1 "$TOOL" $BASE --app node2vec --q 0
expect "ppr zero alpha" 1 "$TOOL" $BASE --app ppr --alpha 0
expect "ppr alpha of one" 1 "$TOOL" $BASE --app ppr --alpha 1
# Node2Vec's fixed-point weights must fit 32 bits: 2^23 * 512 (q=0.5)
# would wrap to 0 and make the likeliest edge unsampleable.
GRAPH="/tmp/walk_tool_graph_$$.txt"
printf '1 0 1\n0 1 1\n0 2 8388608\n2 0 1\n' > "$GRAPH"
expect "node2vec weight overflow" 1 "$TOOL" --engine lightrw-sim \
  --graph "$GRAPH" --app node2vec --length 2
expect "deepwalk on the same weights" 0 "$TOOL" --engine lightrw-sim \
  --graph "$GRAPH" --app deepwalk --length 2
rm -f "$GRAPH"
expect "bad walk length" 1 "$TOOL" --length 0 --rmat_scale 8
expect "bad rmat scale" 1 "$TOOL" --rmat_scale 99
expect "missing graph file" 1 "$TOOL" --graph /nonexistent/edges.txt
expect "bad board count" 1 "$TOOL" --engine distributed --boards 0 \
  --rmat_scale 8
expect "unknown partition strategy" 1 "$TOOL" --engine distributed \
  --partition bogus $BASE
expect "invalid service config" 1 "$TOOL" --engine service $BASE \
  --service-queue-cap 0
expect "unwritable corpus path" 1 "$TOOL" --engine cpu $BASE \
  --out /nonexistent-dir/corpus.txt
expect "unwritable metrics path" 1 "$TOOL" --engine cpu $BASE \
  --metrics-out /nonexistent-dir/metrics.json
# Checkpoint-free death schedules are rejected at validation time unless
# the caller explicitly opts into walker loss...
expect "checkpoint-free death rejected" 1 "$TOOL" --engine distributed \
  --boards 2 --partition hash --rmat_scale 8 --app deepwalk --length 16 \
  --queries 128 --seed 42 --fault-fail-cycles 2000 \
  --fault-fail-boards 1 --fault-checkpoint-interval 0
# ...and with the opt-in, the run completes but reports partial data.
expect "fault run losing walk data" 3 "$TOOL" --engine distributed \
  --boards 2 --partition hash --rmat_scale 8 --app deepwalk --length 16 \
  --queries 128 --seed 42 --fault-fail-cycles 2000 \
  --fault-fail-boards 1 --fault-checkpoint-interval 0 \
  --fault-allow-walker-loss
expect "mismatched death schedule lists" 1 "$TOOL" --engine distributed \
  --boards 4 --partition hash $BASE \
  --fault-fail-cycles 2000,4000 --fault-fail-boards 1
expect "death schedule killing every owner" 1 "$TOOL" --engine distributed \
  --boards 2 --partition hash $BASE \
  --fault-fail-cycles 2000,4000 --fault-fail-boards 0,1 \
  --fault-checkpoint-interval 4096
# The durable checkpoint store lifts that restriction: with a spare to
# rebuild onto, killing every owner still completes every walk.
expect "all-owner death survives with store" 0 "$TOOL" \
  --engine distributed --boards 2 --partition hash --rmat_scale 8 \
  --app deepwalk --length 16 --queries 128 --seed 42 \
  --fault-fail-cycles 2000,4000 --fault-fail-boards 0,1 \
  --fault-checkpoint-interval 4096 --spare-boards 1 --ckpt-store
# ...but only with a spare: no spare means no live end state.
expect "all-owner death with store but no spare" 1 "$TOOL" \
  --engine distributed --boards 2 --partition hash $BASE \
  --fault-fail-cycles 2000,4000 --fault-fail-boards 0,1 \
  --fault-checkpoint-interval 4096 --ckpt-store
# A store whose every write is torn cannot recover anything: the run
# completes but reports partial data.
expect "torn store loses walk data" 3 "$TOOL" --engine distributed \
  --boards 2 --partition hash $BASE \
  --fault-fail-cycles 2000 --fault-fail-boards 1 \
  --fault-checkpoint-interval 0 --ckpt-store --ckpt-torn-rate 1.0
expect "bad ckpt replica count" 1 "$TOOL" --engine distributed \
  --boards 2 --partition hash $BASE --ckpt-store \
  --ckpt-replicas 0
expect "cascade with spare survives" 0 "$TOOL" --engine distributed \
  --boards 4 --partition hash --rmat_scale 8 --app deepwalk --length 16 \
  --queries 128 --seed 42 --fault-fail-cycles 2000,6000 \
  --fault-fail-boards 1,2 --fault-checkpoint-interval 4096 \
  --spare-boards 1
expect "bad span mode" 1 "$TOOL" --engine service $BASE \
  --spans-out /tmp/walk_tool_spans_$$.json --span-mode bogus
expect "bad burn-alert budget" 1 "$TOOL" --engine service $BASE \
  --spans-out /tmp/walk_tool_spans_$$.json --burn-alert-budget 0
expect "bad burn-alert windows" 1 "$TOOL" --engine service $BASE \
  --spans-out /tmp/walk_tool_spans_$$.json --burn-alert-fast-window 100000 \
  --burn-alert-slow-window 1000
expect "unwritable spans path" 1 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 0.2 \
  --spans-out /nonexistent-dir/spans.json
expect "unwritable perf path" 1 "$TOOL" --engine cpu $BASE \
  --perf-out /nonexistent-dir/perf.json
expect "unwritable timeseries path" 1 "$TOOL" --engine cpu $BASE \
  --timeseries-out /nonexistent-dir/ts.json
expect "bad scrape interval" 1 "$TOOL" --engine cpu $BASE \
  --timeseries-out /tmp/walk_tool_ts_$$.json --scrape-interval 0
expect "bad anomaly thresholds" 1 "$TOOL" --engine cpu $BASE \
  --timeseries-out /tmp/walk_tool_ts_$$.json --anomaly-z-open 2.0 \
  --anomaly-z-close 3.0

# Telemetry output: any engine run with --timeseries-out must write a
# timeseries.v1 document; --timeseries-openmetrics-out writes the
# matching OpenMetrics exposition, terminated by its EOF marker.
TS="/tmp/walk_tool_ts_$$.json"
OM="/tmp/walk_tool_ts_$$.om"
expect "service run writes timeseries" 0 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 0.2 --timeseries-out "$TS" \
  --timeseries-openmetrics-out "$OM" --scrape-interval 1024
if ! grep -q '"schema": "timeseries.v1"' "$TS"; then
  echo "FAIL: --timeseries-out did not write a timeseries.v1 doc" >&2
  fails=$((fails + 1))
elif ! grep -q '^# EOF$' "$OM"; then
  echo "FAIL: OpenMetrics exposition missing # EOF terminator" >&2
  fails=$((fails + 1))
else
  echo "ok: timeseries JSON + OpenMetrics exposition written"
fi
rm -f "$TS" "$OM"

# Perf report: any engine run with --perf-out must write a PERF-schema
# document (the same shape scripts/check_perf_json.py consumes).
PERF="/tmp/walk_tool_perf_$$.json"
expect "cpu run writes perf report" 0 "$TOOL" --engine cpu $BASE \
  --perf-out "$PERF"
if [ ! -s "$PERF" ]; then
  echo "FAIL: --perf-out did not write $PERF" >&2
  fails=$((fails + 1))
elif ! grep -q '"perf": "walk_tool"' "$PERF" \
    || ! grep -q '"workloads"' "$PERF" || ! grep -q '"host"' "$PERF"; then
  echo "FAIL: perf JSON missing perf/host/workloads sections" >&2
  fails=$((fails + 1))
else
  echo "ok: perf JSON has perf + host + workloads"
fi
rm -f "$PERF"

# Span output: a service run with --spans-out must write a JSON document
# covering every offered query.
SPANS="/tmp/walk_tool_spans_$$.json"
expect "service run writes spans" 0 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 0.2 --spans-out "$SPANS" \
  --span-mode breached
if [ ! -s "$SPANS" ]; then
  echo "FAIL: --spans-out did not write $SPANS" >&2
  fails=$((fails + 1))
elif ! grep -q '"summaries"' "$SPANS" || ! grep -q '"attribution"' "$SPANS"
then
  echo "FAIL: spans JSON missing summaries/attribution sections" >&2
  fails=$((fails + 1))
else
  echo "ok: spans JSON has summaries + attribution"
fi
rm -f "$SPANS"

# Metrics format: a .prom suffix selects Prometheus exposition text.
PROM="/tmp/walk_tool_metrics_$$.prom"
expect "prometheus metrics by .prom suffix" 0 "$TOOL" --engine cpu $BASE \
  --metrics-out "$PROM"
if ! grep -q '^# TYPE' "$PROM"; then
  echo "FAIL: --metrics-out *.prom did not write exposition text" >&2
  fails=$((fails + 1))
else
  echo "ok: .prom suffix selects prometheus format"
fi
rm -f "$PROM"

# Chaos campaign: a small seeded campaign must pass and write its report.
CHAOS="/tmp/walk_tool_chaos_$$.json"
expect "chaos campaign passes" 0 "$TOOL" --chaos-scenarios 3 \
  --chaos-seed 5 --boards 4 --rmat_scale 8 --length 8 --queries 64 \
  --chaos-out "$CHAOS"
if ! grep -q '"passed": true' "$CHAOS"; then
  echo "FAIL: chaos report missing passed:true" >&2
  fails=$((fails + 1))
else
  echo "ok: chaos report records a passing campaign"
fi
rm -f "$CHAOS"
expect "chaos bad board count" 1 "$TOOL" --chaos-scenarios 4 --boards 1 \
  --rmat_scale 8

expect "service slo breach" 2 "$TOOL" --engine service --rmat_scale 10 \
  --app deepwalk --length 24 --queries 256 --seed 42 --boards 2 \
  --partition hash --service-rate 50.0 --service-deadline 15000 \
  --service-queue-cap 4 --service-retries 0 --slo-max-shed 0.1

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all exit-code cases passed"
