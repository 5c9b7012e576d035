#!/usr/bin/env bash
# Builds dbsserve and the benchmark from the checkout this script sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload cold-mine --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, data
# files, run records, spans) stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOPROXY=off CGO_ENABLED=0

# With telemetry on (the default "local" mode) the go command forks a
# detached sidecar that outlives the build; mode "off" keeps it from starting.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dbsserve" ]; then
	echo "perfbench: no dbsserve source under $root (want go.mod and cmd/dbsserve)" >&2
	exit 1
fi

(cd "$root" && go build -o "$build/bin/dbsserve" ./cmd/dbsserve) >&2
(cd "$here" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" -server "$build/bin/dbsserve" "$@"
