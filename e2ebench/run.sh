#!/usr/bin/env bash
# Builds treeschedd and the e2ebench command from source, then runs the
# benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload cold_large --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files all stay under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/treeschedd" ]; then
	echo "e2ebench: run from the root of a treesched checkout" >&2
	exit 1
fi
mkdir -p "$out/tmp"
export GOCACHE=$out/go-cache GOTMPDIR=$out/tmp GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/treeschedd" ./cmd/treeschedd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -daemon "$out/treeschedd" -spans "$out/spans" "$@"
