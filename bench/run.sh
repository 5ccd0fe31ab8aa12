#!/usr/bin/env bash
# Builds manetbench from source and runs it from the repository root with
# the given flags, for example
#
#   bash bench/run.sh -workload linkspoof -seed 3 -seconds 20 -trace 0
#
# The build cache, the binary, temporary files and CPU profiles all stay
# under .bench_build/ at the repository root. Outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	PPROF_TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$out/manetbench" ./cmd/manetbench)
exec "$out/manetbench" "$@"
