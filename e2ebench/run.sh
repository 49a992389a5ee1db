#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload paced_attack --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, CPU
# profiles) lands in .bench_build/ under the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out"
export GOTOOLCHAIN=local
export GOWORK=off
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export PPROF_TMPDIR="$out"

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out" "$@"
