#!/usr/bin/env bash
# End-to-end ugs-serve benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload read --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Builds ugs-serve and the benchmark program from source into .bench_build/
# (the Go build cache, temporary files and all run artifacts stay there),
# then runs the benchmark. The last line of standard output is the JSON result.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ugs-serve" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ugs-serve in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
# With telemetry on, every go command forks a detached sidecar that outlives
# it; the mode file is the only switch that stops the fork.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bin/ugs-serve" ./cmd/ugs-serve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

if [ "${1:-}" = compare ]; then
	exec "$build/bin/perfbench" "$@"
fi
exec "$build/bin/perfbench" -serve "$build/bin/ugs-serve" -work "$build/work" "$@"
