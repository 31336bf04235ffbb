// Command ddsim runs a single custom multi-tenant scenario on a chosen
// storage stack and prints the aggregate results — a quick way to poke at
// the simulator without the full experiment harness.
//
// The flags describe one scenario.Scenario; -config loads it from a JSON
// file instead, and the flags given override that file's fields. ddsim
// runs the scenario as ddserve does (Scenario.CellSpec, then
// harness.BuildCell), and -compare sweeps its stack over every kind.
//
// Example:
//
//	ddsim -stack daredevil -l 4 -t 16 -cores 4 -measure 500ms
//	ddsim -stack vanilla -l 4 -t 16 -namespaces 4
//	ddsim -config examples/scenarios/aged.json -compare
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"daredevil/internal/harness"
	"daredevil/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ddsim:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a bad invocation (exit status 2); every other error is a
// failed run (exit status 1).
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// run parses args into a scenario, runs it, and prints the report to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("ddsim", flag.ContinueOnError)
	stack := flags.String("stack", "daredevil", "storage stack: vanilla | blk-switch | static-part | dare-base | dare-sched | daredevil")
	compare := flags.Bool("compare", false, "sweep the scenario over every stack concurrently and print a comparison (takes no -stack, -breakdown, -trace, -trace-limit, -prof or -obs-window-us)")
	jobs := flags.Int("j", runtime.GOMAXPROCS(0), "parallel simulations with -compare")
	cores := flags.Int("cores", 4, "CPU cores")
	nL := flags.Int("l", 4, "L-tenants (4KB rand qd=1, real-time ionice)")
	nT := flags.Int("t", 8, "T-tenants (128KB qd=32, best-effort ionice)")
	namespaces := flags.Int("namespaces", 1, "NVMe namespaces (tenants spread round-robin)")
	workstation := flags.Bool("wsm", false, "use the WS-M testbed (8 cores, 128 NSQs / 24 NCQs)")
	warmup := flags.Duration("warmup", 100*time.Millisecond, "warmup window (virtual, whole milliseconds)")
	measure := flags.Duration("measure", 400*time.Millisecond, "measurement window (virtual, whole milliseconds)")
	breakdown := flags.Bool("breakdown", false, "report L-tenant path components (lock wait, completion delay, cross-core)")
	tracePath := flags.String("trace", "", "write request lifecycle spans as Chrome trace-event JSON to this file (open at ui.perfetto.dev)")
	traceLimit := flags.Int("trace-limit", 0, "cap the spans a trace captures (0 = default budget)")
	obsWindowUs := flags.Int64("obs-window-us", 0, "sample queue/CPU/FTL/recovery gauges every N virtual microseconds and print the CSV after the summary")
	profPath := flags.String("prof", "", "profile every request's virtual time by stack layer: print the breakdown table and host self-profile, write the mergeable profile JSON to this file")
	config := flags.String("config", "", "run a JSON scenario file; the other flags given override its fields (-l, -t, -namespaces and -trim shape the flag-built mix only)")
	seed := flags.Uint64("seed", 0, "shift every tenant's random stream (0 = default streams)")
	errorRate := flags.Float64("error-rate", 0, "inject per-command media errors with this probability (controller retries up to 3x)")
	useFTL := flags.Bool("ftl", false, "run on an aged device with the page-mapped FTL (garbage collection, wear leveling)")
	opPct := flags.Float64("op", 7, "FTL over-provisioning percent (with -ftl)")
	trimEvery := flags.Int("trim", 0, "replace every Nth T-tenant request with an NVMe Deallocate (TRIM); 0 disables")
	faultProfile := flags.String("fault", "", "inject faults: brownout | lossy | wearout (window covers the 2nd quarter of -measure; arms host timeout/abort/reset recovery; wearout grows bad blocks only with -ftl)")
	faultSeed := flags.Uint64("fault-seed", 42, "seed for the dedicated fault RNG stream (with -fault)")
	if err := flags.Parse(args); err != nil {
		return usageError{err}
	}
	given := map[string]bool{}
	flags.Visit(func(f *flag.Flag) { given[f.Name] = true })

	if *jobs < 1 {
		return usagef("-j must be at least 1 (got %d)", *jobs)
	}
	harness.SetParallelism(*jobs)

	var sc scenario.Scenario
	label := ""
	if *config != "" {
		if given["l"] || given["t"] || given["namespaces"] || given["trim"] {
			return usagef("-l, -t, -namespaces and -trim shape the flag-built mix; with -config, edit the scenario's jobs")
		}
		data, err := os.ReadFile(*config)
		if err != nil {
			return err
		}
		if sc, err = scenario.Parse(data); err != nil {
			return err
		}
		label = "scenario " + *config + ": "
	} else {
		sc = flagMix(*nL, *nT, *namespaces, *trimEvery)
	}

	for _, d := range []time.Duration{*warmup, *measure} {
		if d <= 0 || d%time.Millisecond != 0 {
			return usagef("-warmup and -measure take positive whole milliseconds (got %v)", d)
		}
	}
	// A given flag overrides its scenario field. The defaults of the rest
	// are the scenario's own, so a flag-built scenario needs nothing more.
	overrides := map[string]func(){
		"stack":         func() { sc.Stack = *stack },
		"cores":         func() { sc.Cores = *cores },
		"warmup":        func() { sc.WarmupMs = int(*warmup / time.Millisecond) },
		"measure":       func() { sc.MeasureMs = int(*measure / time.Millisecond) },
		"seed":          func() { sc.Seed = *seed },
		"ftl":           func() { sc.FTL = *useFTL },
		"op":            func() { sc.OPPct = *opPct },
		"fault":         func() { sc.Fault = *faultProfile },
		"fault-seed":    func() { sc.FaultSeed = *faultSeed },
		"trace":         func() { sc.Trace = *tracePath != "" },
		"trace-limit":   func() { sc.TraceLimit = *traceLimit },
		"obs-window-us": func() { sc.ObsWindowUs = *obsWindowUs },
		"prof":          func() { sc.Profile = *profPath != "" },
	}
	for name := range given {
		if set := overrides[name]; set != nil {
			set()
		}
	}
	if *workstation {
		sc.Machine = "wsm"
	}
	if len(sc.Sweep) > 0 {
		return fmt.Errorf("%s has sweep axes: ddsim runs one cell, or one per stack with -compare (ddserve runs grids)", *config)
	}
	if *compare {
		if given["stack"] || *breakdown || sc.Trace || sc.Profile || sc.ObsWindowUs > 0 {
			return usagef("-compare prints one summary line per stack: it takes no -stack or -breakdown, and no trace, profile or gauge sampling")
		}
		sc.Sweep = []scenario.Axis{{Param: "stack"}}
		for _, k := range harness.AllKinds {
			sc.Sweep[0].Stacks = append(sc.Sweep[0].Stacks, string(k))
		}
	}
	// A parsed file is valid, so a scenario that fails validation here
	// carries a bad flag.
	points, err := sc.Expand()
	if err != nil {
		return usageError{err}
	}
	specs := make([]harness.CellSpec, len(points))
	for i, p := range points {
		if specs[i], err = p.Scenario.CellSpec(); err != nil {
			return err
		}
		// -error-rate and -breakdown have no scenario field: they edit
		// the cell spec the scenario materializes into.
		if *errorRate > 0 {
			specs[i].Machine.NVMe.MediaErrorRate = *errorRate
		}
		specs[i].Breakdown = *breakdown
	}
	if *compare {
		compareStacks(stdout, label+"comparison: "+shape(sc, specs[0]), specs)
		return nil
	}
	// A scenario-armed trace or profile without its flag lands next to
	// the scenario file.
	base := strings.TrimSuffix(*config, ".json")
	if *tracePath == "" {
		*tracePath = base + ".trace.json"
	}
	if *profPath == "" {
		*profPath = base + ".profile.json"
	}
	return runCell(stdout, label+"stack="+string(specs[0].Kind)+" "+shape(sc, specs[0]), specs[0], *tracePath, *profPath)
}

// flagMix is the scenario -l, -t, -namespaces and -trim describe: nL
// L-tenants then nT T-tenants, each class spread round-robin over the
// namespaces (one job per namespace), every T-tenant trimming every
// trim-th request.
func flagMix(nL, nT, namespaces, trim int) scenario.Scenario {
	sc := scenario.Scenario{Namespaces: namespaces}
	n := max(namespaces, 1)
	add := func(name, class string, count, trim int) {
		for ns := 0; ns < n && ns < count; ns++ {
			sc.Jobs = append(sc.Jobs, scenario.Job{Name: name, Class: class,
				Count: (count - ns + n - 1) / n, Namespace: ns, TrimEvery: trim})
		}
	}
	add("fio-L", "L", nL, 0)
	add("fio-T", "T", nT, trim)
	return sc
}

// runCell runs one cell and prints its report under header, then writes
// every observability output the cell armed.
func runCell(w io.Writer, header string, spec harness.CellSpec, tracePath, profPath string) error {
	cell := harness.BuildCell(spec)
	res := cell.Run(spec.Warmup, spec.Measure)
	fmt.Fprintf(w, "%s (measured %v virtual)\n", header, spec.Measure)
	fmt.Fprintf(w, "  L-tenants: avg=%v p99=%v p99.9=%v (%.2f kIOPS, %d ops)\n",
		res.LTenantLatency.Mean, res.LTenantLatency.P99, res.LTenantLatency.P999,
		res.LTenantKIOPS, res.LTenantLatency.Count)
	fmt.Fprintf(w, "  T-tenants: avg=%v p99=%v (%.0f MB/s, %d ops)\n",
		res.TTenantLatency.Mean, res.TTenantLatency.P99,
		res.TThroughputMBps, res.TTenantLatency.Count)
	fmt.Fprintf(w, "  CPU utilization: %.1f%%\n", 100*res.CPUUtilization)
	if f := res.FTL; f != nil {
		fmt.Fprintf(w, "  FTL: WA=%.2f GC runs=%d (moved %d pages, %d erases, %d foreground) trimmed=%d\n",
			f.WriteAmplification, f.GCRuns, f.GCPagesMoved, f.Erases, f.ForegroundGCs, f.TrimmedPages)
		if f.GCPauses.Count > 0 {
			fmt.Fprintf(w, "  GC pauses: avg=%v p99=%v max=%v\n", f.GCPauses.Mean, f.GCPauses.P99, f.GCPauses.Max)
		}
	}
	if r := res.Recovery; r != (harness.RecoveryCounters{}) {
		fmt.Fprintf(w, "  recovery: media-errors=%d failed-cmds=%d timeouts=%d aborts=%d (races=%d escalated=%d) resets=%d cancelled=%d\n",
			r.MediaErrors, r.FailedCommands, r.Timeouts, r.Aborts, r.AbortRaces, r.AbortFails, r.Resets, r.CancelledCmds)
		fmt.Fprintf(w, "  host: nsq-retries=%d requeued=%d terminal-failures=%d | injected: stalls=%d dropped-cqe=%d late-cqe=%d read-errs=%d prog-fails=%d\n",
			r.RetryAttempts, r.CancelRequeues, r.TerminalFailures,
			r.Faults.StallLosses, r.Faults.DroppedCQEs, r.Faults.LateCQEs,
			r.Faults.InjectedReadErrors, r.Faults.ProgramFailures)
	}
	if spec.Breakdown {
		fmt.Fprintf(w, "  L path components: lock-wait avg=%v | completion-delay avg=%v | cross-core %.0f%%\n",
			res.LSubmissionWait.Mean, res.LCompletionDelay.Mean, 100*res.LCrossCoreFraction)
	}
	if spec.Profile {
		fmt.Fprintln(w)
		if err := cell.WriteProfileTable(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := cell.WriteSelfProfile(w); err != nil {
			return err
		}
		if err := writeFile(profPath, res.Profile.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "  profile: wrote %s (merge with other runs via prof.Merge)\n", profPath)
	}
	if spec.Trace {
		if err := writeFile(tracePath, cell.WriteTraceJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "  trace: wrote %s (open at ui.perfetto.dev)\n", tracePath)
	}
	if spec.MetricsWindow > 0 {
		fmt.Fprintln(w)
		if err := cell.WriteMetricsCSV(w); err != nil {
			return err
		}
	}
	if cell.FlightDumps() > 0 {
		fmt.Fprintln(w)
		return cell.WriteFlight(w)
	}
	return nil
}

// compareStacks runs the cells of a stack sweep on the harness worker
// pool, each on its own engine, and prints one summary line per stack —
// the same table at any -j.
func compareStacks(w io.Writer, header string, specs []harness.CellSpec) {
	results := harness.RunCells(len(specs), func(i int) harness.CellResult {
		return harness.RunCellSpec(specs[i])
	})
	fmt.Fprintf(w, "%s -j %d (measured %v virtual)\n", header, harness.Parallelism(), specs[0].Measure)
	fmt.Fprintf(w, "  %-12s %12s %12s %12s %10s %10s %8s\n",
		"stack", "L avg", "L p99", "L p99.9", "L kIOPS", "T MB/s", "CPU")
	for i, r := range results {
		fmt.Fprintf(w, "  %-12s %12v %12v %12v %10.2f %10.0f %7.1f%%\n",
			string(specs[i].Kind), r.LTenantLatency.Mean, r.LTenantLatency.P99,
			r.LTenantLatency.P999, r.LTenantKIOPS, r.TThroughputMBps,
			100*r.CPUUtilization)
	}
}

// shape describes a cell's machine and tenant mix for the report header.
func shape(sc scenario.Scenario, spec harness.CellSpec) string {
	tenants := map[string]int{}
	for _, j := range sc.Jobs {
		tenants[j.Class] += j.Count
	}
	return fmt.Sprintf("cores=%d L=%d T=%d namespaces=%d",
		spec.Machine.Cores, tenants["L"], tenants["T"], max(spec.Namespaces, 1))
}

// writeFile fills path with what write renders.
func writeFile(path string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
