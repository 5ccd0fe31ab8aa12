#!/bin/sh
# trace_smoke.sh — end-to-end smoke of the run-trace plane (DESIGN.md
# §13): run a preset traced twice with the same seed and require
# `reprotrace diff` to report zero divergences; run it reseeded and
# require a first divergence; require trial 0 of a 3-trial fan to match
# the single-run trace (trial 0 keeps the spec seed); then require
# `reprotrace stats` to parse the trace and report the conviction. `make trace-smoke` runs this; CI
# wires it as the trace-smoke job.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() {
    echo "trace-smoke: FAIL: $*" >&2
    exit 1
}

PRESET="${TRACE_SMOKE_PRESET:-linkspoof}"

echo "trace-smoke: building manetsim + reprotrace"
go build -o "$TMP/" ./cmd/manetsim ./cmd/reprotrace

echo "trace-smoke: tracing $PRESET (same seed, twice; then reseeded)"
"$TMP/manetsim" -scenario "$PRESET" -trace "$TMP/a.ndjson" >/dev/null
"$TMP/manetsim" -scenario "$PRESET" -trace "$TMP/b.ndjson" >/dev/null
"$TMP/manetsim" -scenario "$PRESET" -seed 99 -trace "$TMP/c.ndjson" >/dev/null
[ -s "$TMP/a.ndjson" ] || fail "trace a is empty"

# Same seed: byte-identical traces, exit 0.
"$TMP/reprotrace" diff "$TMP/a.ndjson" "$TMP/b.ndjson" >"$TMP/diff-same.txt" ||
    fail "same-seed traces diverged: $(cat "$TMP/diff-same.txt")"
grep -q "0 divergences" "$TMP/diff-same.txt" ||
    fail "unexpected diff output: $(cat "$TMP/diff-same.txt")"
echo "trace-smoke: same-seed pair identical ($(wc -l <"$TMP/a.ndjson") events)"

# The trial-fan branch: trial 0 keeps the spec seed, so its trace is
# the single run's, byte for byte.
echo "trace-smoke: tracing $PRESET as a 3-trial fan"
"$TMP/manetsim" -scenario "$PRESET" -trials 3 -trace "$TMP/fan" >/dev/null
"$TMP/reprotrace" diff "$TMP/fan/trial-000.ndjson" "$TMP/a.ndjson" >"$TMP/diff-fan.txt" ||
    fail "fan trial 0 diverged from the single run: $(cat "$TMP/diff-fan.txt")"
grep -q "0 divergences" "$TMP/diff-fan.txt" ||
    fail "unexpected diff output: $(cat "$TMP/diff-fan.txt")"
echo "trace-smoke: fan trial 0 matches the single run"

# Perturbed seed: a first divergence, exit 1 (and only 1 — 2 is an
# I/O or usage error).
set +e
"$TMP/reprotrace" diff "$TMP/a.ndjson" "$TMP/c.ndjson" >"$TMP/diff-seed.txt"
RC=$?
set -e
[ "$RC" -eq 1 ] || fail "reseeded diff exited $RC, want 1: $(cat "$TMP/diff-seed.txt")"
grep -q "first divergence at line" "$TMP/diff-seed.txt" ||
    fail "no divergence report: $(cat "$TMP/diff-seed.txt")"
echo "trace-smoke: reseeded pair diverges: $(head -1 "$TMP/diff-seed.txt")"

# Stats must parse the trace and see the conviction the preset pins.
"$TMP/reprotrace" stats "$TMP/a.ndjson" >"$TMP/stats.txt" ||
    fail "stats failed: $(cat "$TMP/stats.txt")"
grep -q "^events: " "$TMP/stats.txt" || fail "stats has no event count"
grep -q "detections: 1" "$TMP/stats.txt" ||
    fail "expected one detection in $PRESET: $(cat "$TMP/stats.txt")"
echo "trace-smoke: stats OK: $(head -1 "$TMP/stats.txt")"

echo "trace-smoke: PASS"
