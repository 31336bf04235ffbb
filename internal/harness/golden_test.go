package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daredevil/internal/ftl"
	"daredevil/internal/plot"
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// The golden cells pin the simulator's output bytes across performance
// work: the fixtures under testdata/golden were generated before the
// timing wheel and the SoA/slab hot-path rewrite landed, so a run that
// produces different JSON means an optimization changed simulated
// behavior, not just its speed. Regenerate with
//
//	go test ./internal/harness -run TestGoldenCells -update-golden
//
// only when a deliberate, reviewed model change moves the numbers.

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden CellResult fixtures and experiment fingerprints")

// goldenScale keeps the pinned cells fast while still exercising GC (the
// aged device needs enough writes to trigger collection — shorter windows
// never reach a GC run) and the full fault window (onset, steady faults,
// recovery) inside measurement.
var goldenScale = QuickScale

// goldenSpecs returns the pinned cells: one ext-gc-shaped aged-device cell
// and one ext-fault-shaped brownout cell, mirroring RunExtGCCell and
// RunExtFaultCell's configurations through the CellSpec API, plus one
// overload cell whose NSQs fill, so the full-queue retry path is pinned
// too.
func goldenSpecs() map[string]CellSpec {
	// ext-gc: aged device at 7% OP with TRIM, 4 L-tenants vs 4
	// overwrite-heavy T-tenants at depth 4 (RunExtGCCell's shape).
	gcMachine := SVM(4)
	fcfg := ftl.DefaultConfig()
	fcfg.OPPct = 7
	gcMachine.FTL = &fcfg
	gcJobs := make([]workload.FIOConfig, 0, 8)
	for i := 0; i < 4; i++ {
		gcJobs = append(gcJobs, workload.DefaultLTenant("fio-L", i%4))
	}
	for i := 0; i < 4; i++ {
		cfg := workload.DefaultTTenant("fio-T", i%4)
		cfg.Pattern = workload.Random
		cfg.ReadPct = 0
		cfg.IODepth = 4
		cfg.TrimEvery = 8
		gcJobs = append(gcJobs, cfg)
	}

	// ext-fault: brownout window spanning the second quarter of the
	// measurement phase, host recovery armed (RunExtFaultCell's shape).
	winStart := goldenScale.Warmup + goldenScale.Measure/4
	winEnd := goldenScale.Warmup + goldenScale.Measure/2
	faultMachine := SVM(4)
	sched := ExtFaultSchedule(FaultBrownout, 42, winStart, winEnd)
	faultMachine.Fault = &sched
	faultMachine.NVMe.CmdTimeout = goldenScale.Measure / 8
	faultJobs := make([]workload.FIOConfig, 0, 6)
	for i := 0; i < 4; i++ {
		faultJobs = append(faultJobs, workload.DefaultLTenant("fio-L", i%4))
	}
	for i := 0; i < 2; i++ {
		faultJobs = append(faultJobs, workload.DefaultTTenant("fio-T", i%4))
	}

	return map[string]CellSpec{
		"extgc-aged-op7-trim": {
			Machine: gcMachine, Kind: DareFull,
			Warmup: goldenScale.Warmup, Measure: goldenScale.Measure,
			Jobs: gcJobs,
		},
		"extfault-brownout": {
			Machine: faultMachine, Kind: DareFull,
			Warmup: goldenScale.Warmup, Measure: goldenScale.Measure,
			Jobs: faultJobs,
		},
		// mixed.json's window shortened from 500 to 400 ms: Daredevil's
		// NSQs first fill between 300 and 350 ms in, and the rest of the
		// run is a storm of about 54,000 retry attempts.
		"overload-mixed": {
			Machine: SVM(4), Kind: DareFull,
			Warmup: 100 * sim.Millisecond, Measure: 300 * sim.Millisecond,
			Jobs: overloadJobs(),
		},
	}
}

// overloadJobs is examples/scenarios/mixed.json's tenant list as the
// scenario loader builds it: 4 L-tenants, 12 T-tenants marking every 10th
// request REQ_SYNC, and one open-loop L "webapp" at a 250 µs mean gap. The
// webapp outruns the NSQs, so on vanilla, blk-switch, dare-sched and
// daredevil most submissions retry on a full queue.
func overloadJobs() []workload.FIOConfig {
	jobs := make([]workload.FIOConfig, 0, 17)
	add := func(cfg workload.FIOConfig) {
		cfg.Seed += uint64(len(jobs)) * 9176
		jobs = append(jobs, cfg)
	}
	for i := 0; i < 4; i++ {
		add(workload.DefaultLTenant("db", len(jobs)%4))
	}
	for i := 0; i < 12; i++ {
		cfg := workload.DefaultTTenant("etl", len(jobs)%4)
		cfg.OutlierEvery = 10
		add(cfg)
	}
	web := workload.DefaultLTenant("webapp", len(jobs)%4)
	web.Arrival = 250 * sim.Microsecond
	add(web)
	return jobs
}

// goldenJSON renders a CellResult exactly as the fixtures store it.
func goldenJSON(t *testing.T, res CellResult) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatalf("marshal CellResult: %v", err)
	}
	return append(data, '\n')
}

// TestGoldenCells asserts the pinned cells' CellResult JSON is
// byte-identical to the committed fixtures.
func TestGoldenCells(t *testing.T) {
	for name, spec := range goldenSpecs() {
		t.Run(name, func(t *testing.T) {
			got := goldenJSON(t, RunCellSpec(spec))
			path := filepath.Join("testdata", "golden", name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read fixture (regenerate with -update-golden): %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s: CellResult JSON diverged from golden fixture.\nThe simulator's output bytes changed — a hot-path optimization must not move results.\ngot %d bytes, want %d bytes", name, len(got), len(want))
			}
		})
	}
}

// TestGoldenOverloadRetries asserts the overload fixture pins a retry
// storm: the other golden cells never find a full NSQ, so without it the
// full-queue retry path would be pinned only through ext-fault's hash.
func TestGoldenOverloadRetries(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "overload-mixed.json"))
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update-golden): %v", err)
	}
	var res CellResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Requeues == 0 || res.Recovery.RetryAttempts <= res.Recovery.Requeues {
		t.Fatalf("overload fixture: %d requeues, %d retry attempts; want a storm of repeated retries",
			res.Recovery.Requeues, res.Recovery.RetryAttempts)
	}
}

// experimentFingerprints hashes every pinned artifact at goldenScale, one
// "<sha256>  <name>" line each: every experiment's `ddbench -json` bytes
// (json.MarshalIndent of its result), the obs demo's four exports, and the
// prof demo's merged profile JSON. Along the way it renders every chart
// the same runs produce — each charted result, the obs sparklines, the
// merged and per-cell prof breakdowns — and checks each is well-formed.
func experimentFingerprints(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	add := func(name string, data []byte) {
		fmt.Fprintf(&out, "%x  %s\n", sha256.Sum256(data), name)
	}
	for _, e := range Experiments {
		res := e.Run(goldenScale)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatalf("%s: marshal result: %v", e.Name, err)
		}
		add(e.Name, data)
		c, ok := res.(Charted)
		if !ok {
			if strings.HasPrefix(e.Name, "fig") {
				t.Errorf("%s: a paper figure without a chart", e.Name)
			}
			continue
		}
		var svg bytes.Buffer
		if err := c.Chart().WriteSVG(&svg); err != nil {
			t.Errorf("%s: render chart: %v", e.Name, err)
		}
		checkSVG(t, e.Name+".svg", svg.Bytes())
	}
	od, err := RunObsDemo(goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	add("obs/trace.json", od.Trace)
	add("obs/metrics.csv", od.Metrics)
	add("obs/metrics.svg", od.SVG)
	add("obs/flight.txt", od.Flight)
	checkSVG(t, "obs/metrics.svg", od.SVG)
	pd, err := RunProfDemo(goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	add("prof/profile.json", pd.JSON)
	checkSVG(t, "prof/profile.svg", pd.SVG)
	for _, c := range pd.Cells {
		checkSVG(t, "prof/"+c.Label+".svg", c.SVG)
	}
	return out.Bytes()
}

// checkSVG fails the test unless svg is a well-formed SVG document.
func checkSVG(t *testing.T, name string, svg []byte) {
	t.Helper()
	if err := plot.WellFormed(svg); err != nil || !bytes.HasPrefix(svg, []byte("<svg ")) {
		t.Errorf("%s: not a well-formed SVG document (%v):\n%.200s", name, err, svg)
	}
}

// TestGoldenExperiments asserts every experiment, the obs demo, and the
// prof demo still hash to the committed fingerprints — the whole-harness
// counterpart of TestGoldenCells, so a refactor of any experiment's cell
// loop cannot move a byte unnoticed.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs every experiment")
	}
	got := experimentFingerprints(t)
	path := filepath.Join("testdata", "golden", "experiments.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fingerprints (regenerate with -update-golden): %v", err)
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("fingerprint count changed: got %d lines, want %d\ngot:\n%s", len(gotLines), len(wantLines), got)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("fingerprint diverged:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// TestGoldenCellsRepeatable asserts a fresh build of the same spec
// reproduces the same bytes within one process — the cheap precondition
// for the cross-change fixture comparison above.
func TestGoldenCellsRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: golden cells run twice here")
	}
	spec := goldenSpecs()["extfault-brownout"]
	a := goldenJSON(t, RunCellSpec(spec))
	b := goldenJSON(t, RunCellSpec(spec))
	if string(a) != string(b) {
		t.Fatal("same spec produced different CellResult JSON in one process")
	}
}
