#!/usr/bin/env bash
# Builds frontier-bench and runs it from the repository root, passing every
# argument through:
#
#   bash cmd/frontier-bench/bench.sh --workload census --seed 42 --seconds 20 --trace 0
#
# All build state (Go build cache, temp files, binaries) stays under
# .bench_build/ in the repository, so a run reads and writes nothing
# outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C cmd/frontier-bench build -o "$out/bin/frontier-bench" .
exec "$out/bin/frontier-bench" "$@"
