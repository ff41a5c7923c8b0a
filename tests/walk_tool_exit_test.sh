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

# expect_named <description> <text> <command...>: exit 1 with a stderr
# reason that contains <text> (the flag or variable at fault).
expect_named() {
  desc="$1"
  needle="$2"
  shift 2
  err=$("$@" 2>&1 >/dev/null)
  got=$?
  if [ "$got" -ne 1 ] || ! printf '%s' "$err" | grep -qF -- "$needle"; then
    echo "FAIL: $desc: want exit 1 naming $needle, got $got ($err)" >&2
    fails=$((fails + 1))
  else
    echo "ok: $desc (exit 1, names $needle)"
  fi
}

# Small deterministic base invocation shared by the success cases.
BASE="--rmat_scale 8 --app deepwalk --length 8 --queries 64 --seed 42"
# Scratch --out-dir for every case that writes exports.
OUT=$(mktemp -d "${TMPDIR:-/tmp}/walk_tool_exit.XXXXXX") || exit 1
trap 'rm -rf "$OUT"' EXIT

expect "help" 0 "$TOOL" --help
expect "cpu run succeeds" 0 "$TOOL" --engine cpu $BASE
expect "service run succeeds" 0 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 0.2
expect "unknown flag" 1 "$TOOL" --bogus-flag
expect "malformed flag value" 1 "$TOOL" --length abc
expect "stray argument" 1 "$TOOL" --engine cpu --rmat_scale 8 \
  --app deepwalk -length 3 --queries 4
# Integer flags are range-checked at parse time: a negative value must
# not wrap to a huge unsigned one.
expect "negative queue capacity" 1 "$TOOL" --engine service $BASE \
  --service-queue-cap=-1
# The space form takes a value that starts with one dash, so the reason
# names it.
expect_named "negative queue capacity, space form" \
  "invalid value '-1' for --service-queue-cap" "$TOOL" --engine service \
  $BASE --service-queue-cap -1
# Only a boolean flag may go without a value; the next argument is not
# its value when it is a flag.
expect_named "--graph without a value" "--graph needs a value" \
  "$TOOL" --graph
expect_named "--app followed by a flag" "--app needs a value" \
  "$TOOL" $BASE --app --report
# The help that follows a parse error shows defaults, not parsed values.
expect_named "help after a parse error" "--rmat_scale (default: 14)" \
  "$TOOL" --engine service --rmat_scale 9 --bogus-flag
expect "negative ckpt read latency" 1 "$TOOL" --engine distributed $BASE \
  --ckpt-store --ckpt-read-latency=-1
expect "negative checkpoint interval" 1 "$TOOL" --engine distributed \
  $BASE --fault-checkpoint-interval=-1
expect "too many threads" 1 "$TOOL" --engine cpu $BASE --threads 100000
expect_named "LIGHTRW_SIM_THREADS=4x" LIGHTRW_SIM_THREADS \
  env LIGHTRW_SIM_THREADS=4x "$TOOL" --engine cpu $BASE
# The per-file output flags, the single-value tuning knobs and the
# checkpoint write latency, which nothing read, are gone.
for flag in out metrics-out trace-out perf-out spans-out timeseries-out \
    timeseries-openmetrics-out chaos-out chaos-spans-out trace-limit \
    burn-alert-budget burn-alert-threshold burn-alert-fast-window \
    burn-alert-slow-window anomaly-alpha anomaly-z-open anomaly-z-close \
    anomaly-warmup ckpt-write-latency; do
  expect "removed flag --$flag" 1 "$TOOL" --engine cpu $BASE "--$flag=1"
done
# --exports names are checked against what the mode can write, and
# --out-dir must exist, before anything runs.
expect "unknown export name" 1 "$TOOL" --engine cpu $BASE \
  --out-dir "$OUT" --exports corpus,bogus
expect "removed perf export" 1 "$TOOL" --engine cpu $BASE \
  --out-dir "$OUT" --exports perf
expect "chaos campaign cannot export a trace" 1 "$TOOL" \
  --chaos-scenarios 3 --chaos-seed 5 --boards 4 --rmat_scale 8 \
  --length 8 --queries 64 --out-dir "$OUT" --exports chaos,trace
expect "missing out-dir" 1 "$TOOL" --engine cpu $BASE \
  --out-dir /nonexistent-dir --exports corpus
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
GRAPH="$OUT/graph.txt"
printf '1 0 1\n0 1 1\n0 2 8388608\n2 0 1\n' > "$GRAPH"
expect "node2vec weight overflow" 1 "$TOOL" --engine lightrw-sim \
  --graph "$GRAPH" --app node2vec --length 2
expect "deepwalk on the same weights" 0 "$TOOL" --engine lightrw-sim \
  --graph "$GRAPH" --app deepwalk --length 2
expect "bad walk length" 1 "$TOOL" --length 0 --rmat_scale 8
expect "bad rmat scale" 1 "$TOOL" --rmat_scale 99
expect "missing graph file" 1 "$TOOL" --graph /nonexistent/edges.txt
expect "bad board count" 1 "$TOOL" --engine distributed --boards 0 \
  --rmat_scale 8
expect "unknown partition strategy" 1 "$TOOL" --engine distributed \
  --partition bogus $BASE
expect "invalid service config" 1 "$TOOL" --engine service $BASE \
  --service-queue-cap 0
# Every fault drives each failed attempt back through the retry backoff,
# which doubles per attempt: a budget that could wrap it is rejected.
expect "retry budget whose backoff overflows" 1 "$TOOL" --engine service \
  $BASE --queries 4 --boards 2 --partition hash --service-rate 0.2 \
  --fault-dram-uncorrectable 1.0 --service-retries 56
# A file that cannot be written (here: a directory in its place) fails
# the run after it completes.
UNWRITABLE="$OUT/unwritable"
for file in corpus.txt metrics.json spans.json timeseries.json; do
  mkdir -p "$UNWRITABLE/$file"
done
expect "unwritable corpus path" 1 "$TOOL" --engine cpu $BASE \
  --out-dir "$UNWRITABLE" --exports corpus
expect "unwritable metrics path" 1 "$TOOL" --engine cpu $BASE \
  --out-dir "$UNWRITABLE" --exports metrics
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
# Death-list entries are range-checked too: no exception escapes and no
# board id wraps to a valid one.
expect "death cycle too large" 1 "$TOOL" --engine distributed \
  --boards 2 --partition hash $BASE \
  --fault-fail-cycles 99999999999999999999999 --fault-fail-boards 1
expect "death board id wrapping to a valid board" 1 "$TOOL" \
  --engine distributed --boards 2 --partition hash $BASE \
  --fault-fail-cycles 2000 --fault-fail-boards 4294967297
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
# Bandwidths must be finite, and a spare whose rebuild would take 2^47
# cycles or more is rejected before the run; a slow one still runs.
REBUILD="--engine distributed $BASE --boards 2 --spare-boards 1 \
  --fault-fail-cycles 100 --fault-fail-boards 0"
expect "nan rebuild bandwidth" 1 "$TOOL" $REBUILD \
  --rebuild-bytes-per-cycle nan
expect "rebuild of 2^47 cycles" 1 "$TOOL" $REBUILD \
  --rebuild-bytes-per-cycle 1e-30
expect "slow rebuild runs" 0 "$TOOL" $REBUILD --rebuild-bytes-per-cycle 1e-3
expect "nan scrub bandwidth" 1 "$TOOL" $REBUILD --ckpt-store \
  --ckpt-scrub-bytes nan
expect "scrub budget past 2^63" 1 "$TOOL" $REBUILD --ckpt-store \
  --ckpt-scrub-bytes 1e300
expect "nan best-effort fraction" 1 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 0.2 --service-best-effort nan
# An arrival rate whose clock reaches 2^47 cycles is rejected, naming
# the field, instead of casting the clock out of range.
expect "arrival clock past 2^47" 1 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 1e-30
if ! "$TOOL" --engine service $BASE --boards 2 --partition hash \
    --service-rate 1e-30 2>&1 >/dev/null |
    grep -q arrivals.rate_per_kcycle; then
  echo "FAIL: arrival clock reason does not name arrivals.rate_per_kcycle" >&2
  fails=$((fails + 1))
else
  echo "ok: arrival clock reason names arrivals.rate_per_kcycle"
fi
# A board death long after the work ends: the time series skips the
# idle windows its ring would evict instead of closing each one.
expect "board death at 10^15 cycles with timeseries" 0 "$TOOL" \
  --engine distributed --rmat_scale 6 --queries 8 --length 4 --boards 2 \
  --partition hash --fault-fail-cycles 1000000000000000 \
  --fault-fail-boards 1 --out-dir "$OUT" --exports timeseries
expect "bad span mode" 1 "$TOOL" --engine service $BASE \
  --out-dir "$OUT" --exports spans --span-mode bogus
expect "unwritable spans path" 1 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 0.2 \
  --out-dir "$UNWRITABLE" --exports spans
expect "unwritable timeseries path" 1 "$TOOL" --engine cpu $BASE \
  --out-dir "$UNWRITABLE" --exports timeseries
expect "bad scrape interval" 1 "$TOOL" --engine cpu $BASE \
  --out-dir "$OUT" --exports timeseries --scrape-interval 0

# Corpus output: one line per walk.
expect "cpu run writes corpus" 0 "$TOOL" --engine cpu $BASE \
  --out-dir "$OUT" --exports corpus
if [ "$(wc -l < "$OUT/corpus.txt")" -ne 64 ]; then
  echo "FAIL: corpus.txt does not hold one line per query" >&2
  fails=$((fails + 1))
else
  echo "ok: corpus.txt holds 64 walks"
fi

# Telemetry output: any engine run exporting timeseries must write a
# timeseries.v1 document and the matching OpenMetrics exposition,
# terminated by its EOF marker.
expect "service run writes timeseries" 0 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 0.2 --out-dir "$OUT" \
  --exports timeseries --scrape-interval 1024
if ! grep -q '"schema": "timeseries.v1"' "$OUT/timeseries.json"; then
  echo "FAIL: timeseries.json is not a timeseries.v1 doc" >&2
  fails=$((fails + 1))
elif ! grep -q '^# EOF$' "$OUT/timeseries.om"; then
  echo "FAIL: timeseries.om missing # EOF terminator" >&2
  fails=$((fails + 1))
else
  echo "ok: timeseries JSON + OpenMetrics exposition written"
fi

# Span output: a service run exporting spans must write a JSON document
# covering every offered query.
expect "service run writes spans" 0 "$TOOL" --engine service $BASE \
  --boards 2 --partition hash --service-rate 0.2 --out-dir "$OUT" \
  --exports spans --span-mode breached
if [ ! -s "$OUT/spans.json" ]; then
  echo "FAIL: --exports spans did not write spans.json" >&2
  fails=$((fails + 1))
elif ! grep -q '"summaries"' "$OUT/spans.json" \
    || ! grep -q '"attribution"' "$OUT/spans.json"; then
  echo "FAIL: spans JSON missing summaries/attribution sections" >&2
  fails=$((fails + 1))
else
  echo "ok: spans JSON has summaries + attribution"
fi

# Metrics output: the snapshot as JSON and as Prometheus exposition text.
expect "cpu run writes metrics" 0 "$TOOL" --engine cpu $BASE \
  --out-dir "$OUT" --exports metrics
if ! grep -q '"metrics"' "$OUT/metrics.json"; then
  echo "FAIL: metrics.json is not a metrics snapshot" >&2
  fails=$((fails + 1))
elif ! grep -q '^# TYPE' "$OUT/metrics.prom"; then
  echo "FAIL: metrics.prom is not Prometheus exposition text" >&2
  fails=$((fails + 1))
else
  echo "ok: metrics JSON + Prometheus exposition written"
fi

# Chaos campaign: a small seeded campaign must pass and write its report.
expect "chaos campaign passes" 0 "$TOOL" --chaos-scenarios 3 \
  --chaos-seed 5 --boards 4 --rmat_scale 8 --length 8 --queries 64 \
  --out-dir "$OUT" --exports chaos
if ! grep -q '"passed": true' "$OUT/chaos.json"; then
  echo "FAIL: chaos report missing passed:true" >&2
  fails=$((fails + 1))
else
  echo "ok: chaos report records a passing campaign"
fi
expect "chaos bad board count" 1 "$TOOL" --chaos-scenarios 4 --boards 1 \
  --rmat_scale 8

SLO_RUN="--engine service --rmat_scale 10 --app deepwalk --length 24 \
  --queries 256 --seed 42 --boards 2 --partition hash --service-rate 50.0 \
  --service-deadline 15000 --service-queue-cap 4 --service-retries 0"
expect "service slo breach" 2 "$TOOL" $SLO_RUN --slo-max-shed 0.1
# An SLO threshold is a fraction: NaN would never compare as breached and
# a negative one would always breach, so both are rejected before the run.
for value in nan -1 1.5; do
  expect_named "--slo-max-shed=$value" slo-max-shed "$TOOL" $SLO_RUN \
    "--slo-max-shed=$value"
done
expect_named "--slo-max-violation=nan" slo-max-violation "$TOOL" $SLO_RUN \
  --slo-max-violation=nan

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all exit-code cases passed"
