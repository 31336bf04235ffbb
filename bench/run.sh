#!/usr/bin/env bash
# Builds the benchmark and the ddserve daemon from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload cell-steady --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare runs/A runs/B
#   bash bench/run.sh check    # the bench module's tests, vet, gofmt and ddvet
#
# Every build product and toolchain cache stays under .bench_build/ in the
# checkout, and the toolchain never reaches the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/gopath" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its settings and telemetry counters under the user
# config directory; TMPDIR and PPROF_TMPDIR catch anything else temporary.
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/gotmp" PPROF_TMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

if [ "${1:-}" = check ]; then
	# The root module's `go test ./...` and `make lint` do not reach this
	# module, so it carries its own gate, linted under the root config.
	cd bench
	go test ./...
	go vet ./...
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed:"
		echo "$unformatted"
		exit 1
	fi
	exec go run daredevil/cmd/ddvet -config ../.ddvet.json -nocache ./...
fi

go build -C bench -o "$out/bin/" . daredevil/cmd/ddserve
exec "$out/bin/bench" "$@"
