#!/usr/bin/env bash
# The repository's benchmark. Builds dfdserve, the harness and the layer
# probes from the checkout this script sits in, then hands its arguments
# to the harness (bench/dfdbench; -h lists them):
#
#   bench/run.sh                      the whole benchmark, about four minutes
#   bench/run.sh --quick              every code path in under a minute; not for claims
#   bench/run.sh --selfcheck          the whole benchmark, then the A/A check: six runs
#                                     of every workload, medians of alternate runs
#                                     compared against the bounds in BENCHMARK.json
#   bench/run.sh --baseline           the whole benchmark, recorded as bench/baseline/<commit>.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run, ending in the one-line JSON summary
#   bench/run.sh --test               vet and unit-test the benchmark's own code
#
# Everything it writes stays inside the checkout: build products and the
# Go caches under .bench_build/, logs, traces and results under bench/out/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=$root/.bench_build
bin=$build/bin
mkdir -p "$bin" "$build/tmp" bench/out

# The toolchain may write only below the checkout, and never fetch.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if [ "${1:-}" = "--test" ]; then
	go -C bench vet ./...
	exec go -C bench test ./...
fi

# Rebuild when a Go file, a go.mod or a source directory is newer than the
# last build; a checkout that never changes builds once.
stamp=$build/built
if [ ! -e "$stamp" ] || [ -n "$(find . \( -path ./.bench_build -o -path ./.git -o -path ./bench/out \) -prune -o \
		\( -name '*.go' -o -name go.mod -o -type d \) -newer "$stamp" -print -quit)" ]; then
	rm -f "$stamp" "$bin"/*
	touch "$build/building"
	go build -o "$bin/dfdserve" ./cmd/dfdserve
	go -C bench build -o "$bin/dfdbench" ./dfdbench
	# A probe that no longer compiles against this commit is reported as
	# unavailable by the harness; it does not fail the benchmark.
	for layer in deque om core policy grt rtrace serve; do
		go -C bench build -o "$bin/probe-$layer" "./probes/$layer" ||
			echo "# probe $layer does not build against this commit" >&2
	done
	mv "$build/building" "$stamp"
fi

commit=unknown
if [ -d .git ] && command -v git >/dev/null; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$bin/dfdbench" --bin "$bin" --out bench/out --commit "$commit" "$@"
