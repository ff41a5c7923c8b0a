#!/bin/sh
# Exit-code contract of the bench binaries, driven through one of them:
#   0  the tables printed and BENCH_<name>.json was written
#   1  an invalid LIGHTRW_SCALE_SHIFT / LIGHTRW_MAX_QUERIES, a failed run,
#      or a BENCH file that cannot be written
# Every exit 1 must name the offending variable or path on stderr.
#
# Usage: bench_exit_test.sh <path-to-table5_resources>
set -u

BENCH="${1:?usage: $0 <path-to-table5_resources>}"
fails=0

OUT=$(mktemp -d "${TMPDIR:-/tmp}/bench_exit.XXXXXX") || exit 1
trap 'rm -rf "$OUT"' EXIT

# expect <description> <exit code> <text stderr must contain> <env...>
expect() {
  desc="$1"
  want="$2"
  needle="$3"
  shift 3
  err=$(env LIGHTRW_BENCH_JSON_DIR="$OUT" "$@" "$BENCH" 2>&1 >/dev/null)
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: want exit $want, got $got ($err)" >&2
    fails=$((fails + 1))
  elif [ -n "$needle" ] && ! printf '%s' "$err" | grep -qF -- "$needle"; then
    echo "FAIL: $desc: stderr does not name $needle: $err" >&2
    fails=$((fails + 1))
  else
    echo "ok: $desc (exit $got)"
  fi
}

for value in abc 32 -1 " 7" 99999999999999999999; do
  expect "LIGHTRW_SCALE_SHIFT='$value'" 1 LIGHTRW_SCALE_SHIFT \
    LIGHTRW_SCALE_SHIFT="$value"
done
for value in abc 4294967296 -1; do
  expect "LIGHTRW_MAX_QUERIES='$value'" 1 LIGHTRW_MAX_QUERIES \
    LIGHTRW_MAX_QUERIES="$value"
done
expect "unwritable BENCH json dir" 1 "$OUT/missing" \
  LIGHTRW_BENCH_JSON_DIR="$OUT/missing"

expect "valid environment" 0 "" LIGHTRW_SCALE_SHIFT=11 \
  LIGHTRW_MAX_QUERIES=64
json="$OUT/BENCH_table5_resources.json"
if python3 -c 'import json, sys
record = json.load(open(sys.argv[1]))
assert record["bench"] == "table5_resources", record["bench"]
assert record["context"]["scale_shift"] == 11, record["context"]
assert len(record["rows"]) == 2, record["rows"]' "$json"; then
  echo "ok: $json parses"
else
  echo "FAIL: $json missing or malformed" >&2
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all bench exit-code cases passed"
