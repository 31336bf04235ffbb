package main

import (
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"daredevil/internal/harness"
	"daredevil/internal/serve"
	"daredevil/internal/sim"
)

// tiny shrinks a cell workload to one shift of short cells.
func tiny(l cellLoad, warmupMs, measureMs int) cellLoad {
	l.base.WarmupMs, l.base.MeasureMs = warmupMs, measureMs
	l.shifts = 1
	return l
}

// oneCell returns the cell of kind from a tiny version of l.
func oneCell(t *testing.T, l cellLoad, kind harness.StackKind, warmupMs, measureMs int) cellCase {
	t.Helper()
	cases, err := tiny(l, warmupMs, measureMs).cases(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.name == string(kind)+"/0" {
			return c
		}
	}
	t.Fatalf("no %s cell", kind)
	return cellCase{}
}

// The seam decorators forward every call unchanged, so a decorated 50 ms
// cell reproduces the plain cell's result bytes, including the recovery
// counters read through the decorated stack and the FTL's GC accounting.
func TestDecoratorsKeepCellOutput(t *testing.T) {
	for _, tc := range []struct {
		load cellLoad
		kind harness.StackKind
		// queueDepth > 0 shrinks the NSQs so the full-queue retry path,
		// whose counters reach the result through RecoveryStats, runs.
		queueDepth int
	}{
		{cellSteady, harness.DareFull, 0},
		{cellSteady, harness.Vanilla, 16},
		{cellOverload, harness.DareSched, 0},
		{cellAged, harness.DareFull, 0},
	} {
		c := oneCell(t, tc.load, tc.kind, 20, 50)
		if tc.queueDepth > 0 {
			c.spec.Machine.NVMe.QueueDepth = tc.queueDepth
		}
		plain, err := runCell(c, false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		timed, err := runCell(c, true, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plain.print != timed.print {
			t.Errorf("%s: decorated cell output differs from the plain cell", c.name)
		}
		if timed.submitCalls == 0 || timed.submitNs <= 0 || timed.allocBytes <= 0 {
			t.Errorf("%s: decorated cell recorded %d submits in %dns, %v bytes allocated", c.name, timed.submitCalls, timed.submitNs, timed.allocBytes)
		}
		if c.spec.Machine.FTL != nil && (timed.ftlNs <= 0 || timed.ftl.HostPagesWritten == 0) {
			t.Errorf("%s: FTL decorator saw no writes", c.name)
		}
		if tc.queueDepth > 0 && timed.recovery.RetryAttempts == 0 {
			t.Errorf("%s: shallow-queue cell never retried, so RecoveryStats forwarding went untested", c.name)
		}
	}
}

func inProcessDaemon() (*daemon, error) {
	srv := serve.New(serve.Config{Workers: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	return &daemon{url: ts.URL, stop: func() error {
		ts.Close()
		srv.Close()
		return nil
	}}, nil
}

// Every workload runs end to end at a tiny scale, answers correctly, and
// measures every end-to-end metric; one cell workload and the grid also
// run traced, which adds every per-layer metric they reach and checks that
// tracing leaves outputs unchanged.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	tinyGrid := harness.Scale{Warmup: 5 * sim.Millisecond, Measure: 20 * sim.Millisecond}
	tinyServe := serveMix{warmup: 300 * time.Millisecond, setups: 2}
	e2e := []string{"wall_p50_ms", "rss_mb", "setup_s"}
	for _, tc := range []struct {
		name   string
		traced bool
		run    func(*run) error
		want   []string // metrics that must read above zero
	}{
		{"cell-steady", true, func(r *run) error { return runCells(r, tiny(cellSteady, 10, 40)) },
			[]string{"sim.events_per_io", "stack.submit_share", "harness.run_ms_p50", "sim.ladder_ns_per_event", "stack.ladder_ns_per_io.daredevil", "runtime.gc_cycles"}},
		{"cell-overload", false, func(r *run) error { return runCells(r, tiny(cellOverload, 10, 40)) }, e2e},
		{"cell-aged", false, func(r *run) error { return runCells(r, tiny(cellAged, 10, 40)) }, e2e},
		{"paper-grid", true, func(r *run) error { return runGrid(r, tinyGrid) },
			[]string{"harness.exp_ms.fig6", "harness.speedup", "ftl.ladder_build_ms"}},
		{"serve-mix", false, func(r *run) error { return runServe(r, tinyServe, inProcessDaemon) }, e2e},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !spec.hasWorkload(tc.name) || workloads[tc.name] == nil {
				t.Fatalf("%s is not a BENCHMARK.json workload with a runner", tc.name)
			}
			r, err := newRun(tc.name, defaultSeed, 400*time.Millisecond, tc.traced, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			// Pinned fingerprints are for full-size runs; skip them here.
			if err := execute(r, tc.run, pinned{Seed: defaultSeed + 1}); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.problems)
			}
			if len(r.prints) == 0 {
				t.Error("no output fingerprints taken")
			}
			m, err := spec.metricsFor(tc.traced, r.measured)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.want {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v, want a measured value", name, m[name].Value)
				}
			}
			if tc.traced {
				var shares float64
				for _, b := range cpuBuckets {
					shares += m["cpu_share."+b].Value
				}
				if shares < 0.99 || shares > 1.01 {
					t.Errorf("cpu shares sum to %v, want 1", shares)
				}
			}
		})
	}
}
