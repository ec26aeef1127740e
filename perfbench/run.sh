#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it with the
# given arguments, from the root of an aggchecker checkout:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh compare old.txt new.txt
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
if [ "${1:-}" = compare ]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" --dir "$build/run" "$@"
