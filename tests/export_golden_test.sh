#!/bin/sh
# Byte contract of walk_tool's export files. Runs two of the CI
# determinism gate's scenarios at 1 and 4 host threads and compares the
# sha256 of every file they export with the digests recorded below:
#   sharded  service engine, 4 admission shards, replicated boards;
#            spans, timeseries, trace and metrics exports
#   store    distributed engine, two board deaths, a spare, and the
#            durable checkpoint store with bit rot; spans and timeseries
# A digest moves only when an export's bytes move. A change that means
# to move them re-records the digests and says why.
#
# Usage: export_golden_test.sh <path-to-walk_tool>
set -u

TOOL="${1:?usage: $0 <path-to-walk_tool>}"
fails=0

OUT=$(mktemp -d "${TMPDIR:-/tmp}/export_golden.XXXXXX") || exit 1
trap 'rm -rf "$OUT"' EXIT

# check <dir> <file> <expected sha256>
check() {
  got=$(sha256sum "$1/$2" 2>/dev/null | cut -d' ' -f1)
  if [ "$got" = "$3" ]; then
    echo "ok: $1/$2"
  else
    echo "FAIL: $1/$2: sha256 ${got:-missing}, want $3" >&2
    fails=$((fails + 1))
  fi
}

# run <scenario> <threads> <walk_tool flags...>
run() {
  dir="$OUT/$1-t$2"
  mkdir -p "$dir"
  threads="$2"
  shift 2
  if ! LIGHTRW_SIM_THREADS="$threads" "$TOOL" "$@" --out-dir "$dir" \
      >/dev/null; then
    echo "FAIL: walk_tool exited non-zero for $dir" >&2
    fails=$((fails + 1))
  fi
}

for threads in 1 4; do
  run sharded "$threads" --engine service --rmat_scale 8 --app deepwalk \
    --length 16 --queries 384 --seed 42 --boards 4 --partition hash \
    --replicate --service-shards 4 --service-rate 32 \
    --service-deadline 4096 --service-queue-cap 4 --scrape-interval 1024 \
    --exports spans,timeseries,trace,metrics
  dir="$OUT/sharded-t$threads"
  check "$dir" metrics.json \
    31b1b7e9f1b6ff24cd919a9026b7e87f664966e746b5ee136bb6dfcc6c6f308c
  check "$dir" metrics.prom \
    4b9901ad65a3b1cc9bec826cbace4371be12e9bf8319e548f84bb0776881f75f
  check "$dir" spans.json \
    6295ef5bd2dd8c5166d47bfafa18f1c07027cc746a1f311fc8d0ddc372313698
  check "$dir" timeseries.json \
    c7799cc14e13ce417c95cb738e684496cd2b933847dee81d1510964752ae650f
  check "$dir" timeseries.om \
    96a11c3b1ff3458f6fb1570758952d791bb8019458e69d508343b27e6edd6cb1
  check "$dir" trace.json \
    b488bc701829661cc5a778b1a068d48db46d3a20e11d1839c9fd02fa6b27f187

  run store "$threads" --engine distributed --rmat_scale 8 --app deepwalk \
    --length 16 --queries 256 --seed 42 --boards 2 --partition hash \
    --fault-fail-cycles 2000,4000 --fault-fail-boards 0,1 \
    --fault-checkpoint-interval 4096 --spare-boards 1 --ckpt-store \
    --ckpt-bit-rot 0.0002 --scrape-interval 512 --exports spans,timeseries
  dir="$OUT/store-t$threads"
  check "$dir" spans.json \
    452cd8051ce89e122bdd8702a3aaedd90b65c0262ff2c38403a2af634778c5de
  check "$dir" timeseries.json \
    e0cd270c91b28688ca9e6bff1808c3044e317c12745bddaaa49e3be128581355
  check "$dir" timeseries.om \
    2910ce5ac1cf483d5db40c5aeccf214470a97df29d7b32911b9baccda364c4aa
done

if [ "$fails" -ne 0 ]; then
  echo "$fails export check(s) failed" >&2
  exit 1
fi
echo "all export digests match"
