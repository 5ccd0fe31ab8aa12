#!/usr/bin/env bash
# Judges HEAD against a base commit with manetbench (bench/README.md):
#
#   scripts/bench_compare.sh <base-ref> <pairs>
#
# Checks out <base-ref> and HEAD as git worktrees under .bench_compare/,
# then runs `bash bench/run.sh -workload all` in each, alternating which
# side goes first, <pairs> times. Results append to
# .bench_compare/base.jsonl and .bench_compare/head.jsonl. The script
# ends with `bench/run.sh compare base.jsonl head.jsonl`, writes its
# report to .bench_compare/report.txt as well as stdout, and exits with
# compare's status: 1 if any end-to-end metric is worse or unresolved.
# manetbench's own rule for a claimed gain needs 10 pairs.
set -euo pipefail
usage="usage: scripts/bench_compare.sh <base-ref> <pairs>"
base=${1:?$usage}
pairs=${2:?$usage}
cd "$(dirname "$0")/.."
work="$PWD/.bench_compare"
rm -rf "$work"
git worktree prune
mkdir -p "$work"
cleanup() {
	git worktree remove --force "$work/base" 2>/dev/null || true
	git worktree remove --force "$work/head" 2>/dev/null || true
	git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$work/base" "$base"
git worktree add --quiet --detach "$work/head" HEAD

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do
		echo "pair $i/$pairs: $side" >&2
		bash "$work/$side/bench/run.sh" -workload all -out "$work/$side.jsonl"
	done
done

status=0
bash "$work/head/bench/run.sh" compare "$work/base.jsonl" "$work/head.jsonl" |
	tee "$work/report.txt" || status=$?
exit "$status"
