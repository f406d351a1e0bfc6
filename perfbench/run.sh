#!/bin/sh
# Builds the benchmark and jobgraphd from this checkout's sources into
# .bench_build/ and runs the benchmark with the given arguments:
#
#	sh perfbench/run.sh --workload ingest --seed 1 --seconds 28 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, temp files, traces, daemon state) stays under
# .bench_build/.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/jobgraphd" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of a jobgraph checkout (go.mod, cmd/ and internal/ are missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$build/jobgraphd" ./cmd/jobgraphd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -daemon "$build/jobgraphd" -work "$build/work" -repo "$root" "$@"
