#!/usr/bin/env bash
# Runs the softwatt benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness and the traced replay with the Go toolchain, keeping
# the build cache, temporary files and everything the runs write under
# .bench_build/, then hands over to the harness. See perfbench/README.md.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/softwatt ]; then
	echo "perfbench: run from the root of a softwatt checkout" >&2
	exit 2
fi
b="$PWD/.bench_build"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" \
	XDG_CONFIG_HOME="$b/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
mkdir -p "$b/tmp" "$b/bin"
(cd perfbench && go build -o "$b/bin/" ./harness ./replay)
exec "$b/bin/harness" "$@"
