# Daredevil reproduction — common tasks.

GO ?= go

.PHONY: all build test test-short race bench-all figures svg json obs prof examples serve serve-smoke lint vet fmt cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The simulator is single-goroutine by design; -race proves it (and the
# tests around it) stay that way.
race:
	$(GO) test -race -short ./...

# The full benchmark sweep across every package.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table/figure (plus extensions) at default scale.
figures:
	$(GO) run ./cmd/ddbench all

svg:
	$(GO) run ./cmd/ddbench -svg out/figures all

json:
	$(GO) run ./cmd/ddbench -json out/results all

# Instrumented demo cell: Perfetto trace, gauge CSV + SVG sparklines, and
# the flight-recorder dump of its recovery escalations.
obs:
	$(GO) run ./cmd/ddbench -obs out/obs

# Profiled comparison grid: the merged virtual-time layer-latency profile
# (breakdown table, flame-graph folded stacks, stacked-bar SVG, mergeable
# JSON) plus per-cell tables — byte-identical at any -j width. CI archives
# out/prof as a workflow artifact.
prof:
	$(GO) run ./cmd/ddbench -quick -prof out/prof

# Run the capacity-planning daemon on the default local port.
serve:
	$(GO) run ./cmd/ddserve

# End-to-end daemon smoke test: sweep, cache hit, what-if, SIGTERM drain.
serve-smoke:
	./scripts/ddserve_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multitenant
	$(GO) run ./examples/multinamespace
	$(GO) run ./examples/ycsb
	$(GO) run ./examples/outliers
	$(GO) run ./examples/virtio
	$(GO) run ./examples/webapp
	$(GO) run ./examples/aged

# The determinism and hot-path lint suite (see internal/analysis): must be
# clean before merge. go vet and gofmt ride along so `make lint` is the one
# local command matching CI's lint job.
lint:
	$(GO) run ./cmd/ddvet -timings ./...
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

cover:
	$(GO) test -cover ./...

clean:
	rm -rf out
