#!/usr/bin/env bash
# Builds the benchmark and the pfdserved daemon from the sources of the
# checkout this script sits in, then runs one benchmark invocation:
#
#   bash e2ebench/run.sh --workload t13-mined --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh selfcheck -runs 10
#
# Run it from the checkout root. Every build and run artifact (Go build
# cache, binaries, scratch data, traces) stays under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$build/bin"

(cd "$root/e2ebench" &&
  go build -o "$build/bin/e2ebench" . &&
  go build -o "$build/bin/pfdserved" pfd/cmd/pfdserved) >&2

cd "$root"
mode=run
if [ "${1:-}" = selfcheck ]; then
  mode=selfcheck
  shift
fi
exec "$build/bin/e2ebench" "$mode" -server "$build/bin/pfdserved" -work "$build" "$@"
