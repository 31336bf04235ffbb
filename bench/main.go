// Command bench is the repository benchmark: five workloads, from one
// steady simulation cell to the ddserve daemon, each timed end to end
// through public entry points, with every simulated output checked against
// pinned fingerprints. README.md lists the workloads, the metrics and their
// bounds, and how to run, trace and compare.
//
//	bash bench/run.sh --workload cell-steady --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh compare .bench_build/runs/before .bench_build/runs/after
//	bash bench/run.sh pin > bench/fingerprints.json
//	bash bench/run.sh check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"daredevil/internal/harness"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each BENCHMARK.json workload to its runner.
var workloads = map[string]func(*run) error{
	"cell-steady":   func(r *run) error { return runCells(r, cellSteady) },
	"cell-overload": func(r *run) error { return runCells(r, cellOverload) },
	"cell-aged":     func(r *run) error { return runCells(r, cellAged) },
	"paper-grid":    func(r *run) error { return runGrid(r, harness.DefaultScale) },
	"serve-mix":     func(r *run) error { return runServe(r, defaultServeMix, spawnDaemon(ddserveBinary())) },
}

// ddserveBinary is the daemon run.sh builds next to this binary.
func ddserveBinary() string {
	exe, err := os.Executable()
	if err != nil {
		return "ddserve"
	}
	return filepath.Join(filepath.Dir(exe), "ddserve")
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "pin":
			return runPin(stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, one of BENCHMARK.json's")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 18, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics plus spans.json and cpu.pprof")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	w := workloads[*name]
	if w == nil || !spec.hasWorkload(*name) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	pins, err := loadPinned()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	traced := *trace == 1
	var dir string
	if traced {
		dir = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", *name, *seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	r, err := newRun(*name, *seed, time.Duration(*seconds)*time.Second, traced, dir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%d trace=%d num_cpu=%d go=%s goarch=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.Version(), runtime.GOARCH)
	if err := execute(r, w, pins); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	metrics, err := spec.metricsFor(traced, r.measured)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, n := range r.notes {
		fmt.Fprintln(stdout, "  #", n)
	}
	if traced {
		fmt.Fprintf(stdout, "  # spans.json, cpu.pprof and top.txt are in %s\n", dir)
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "bench: FAIL:", p)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs the workload, scales its end-to-end times, then runs the
// ladder on traced runs, then checks the pinned fingerprints.
func execute(r *run, w func(*run) error, pins pinned) error {
	if err := w(r); err != nil {
		return err
	}
	r.calibrateTimes()
	if r.traced {
		if err := r.ladder(); err != nil {
			return err
		}
	}
	r.checkPinned(pins)
	return nil
}

// runPin runs every workload briefly at the default seed and prints the
// fingerprints file. Re-pin only after a change that is meant to alter
// simulated output.
func runPin(stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	out := pinned{Seed: defaultSeed, Workloads: map[string]map[string]string{}}
	for _, wd := range spec.Workloads {
		r, err := newRun(wd.Name, defaultSeed, time.Second, false, "")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := workloads[wd.Name](r); err != nil {
			fmt.Fprintf(stderr, "bench: pin %s: %v\n", wd.Name, err)
			return 1
		}
		if r.failed > 0 {
			fmt.Fprintf(stderr, "bench: pin %s: %d failures, first: %s\n", wd.Name, r.failed, r.problems[0])
			return 1
		}
		out.Workloads[wd.Name] = r.prints
		fmt.Fprintf(stderr, "bench: pinned %d fingerprints of %s\n", len(r.prints), wd.Name)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
