package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"daredevil/internal/ftl"
	"daredevil/internal/harness"
	"daredevil/internal/scenario"
	"daredevil/internal/walltime"
)

// cellLoad is a cell workload: one scenario run on all six stacks under a
// few tenant-seed shifts. That list of cells is a round. The first round
// is an untimed warm-up that also takes the reference output fingerprints;
// timed rounds repeat it, one cell after another on one goroutine, until
// the budget is spent, and every timed cell must reproduce its reference
// bytes. Only harness.BuildCell and Cell.Run are timed.
type cellLoad struct {
	base   scenario.Scenario
	shifts int
}

var (
	// cellSteady is the ROADMAP's one steady-state cell: SV-M with 4
	// cores, a healthy device without FTL, 4 L-tenants (4 KB random read,
	// qd 1) and 16 T-tenants (128 KB sequential write, qd 32).
	cellSteady = cellLoad{
		base: scenario.Scenario{
			Machine: "svm", Cores: 4, WarmupMs: 100, MeasureMs: 2000,
			Jobs: []scenario.Job{
				{Name: "L", Class: "L", Count: 4},
				{Name: "T", Class: "T", Count: 16},
			},
		},
		shifts: 4,
	}
	// cellOverload is examples/scenarios/mixed.json with a 1 s window: the
	// open-loop webapp tenant outruns the NSQs and, on four of the six
	// stacks, stackbase's full-queue retry path dominates the run.
	cellOverload = cellLoad{
		base: scenario.Scenario{
			Machine: "svm", Cores: 4, WarmupMs: 100, MeasureMs: 1000,
			Jobs: []scenario.Job{
				{Name: "db", Class: "L", Count: 4},
				{Name: "etl", Class: "T", Count: 12, OutlierEvery: 10},
				{Name: "webapp", Class: "L", Count: 1, ArrivalUs: 250},
			},
		},
		shifts: 2,
	}
	// cellAged is examples/scenarios/aged.json with an 8 s window: an aged
	// FTL device (OP 15%) under random rewrites with TRIM, so BuildCell's
	// preconditioning is a real set-up cost and GC runs in the timed path.
	cellAged = cellLoad{
		base: scenario.Scenario{
			Machine: "svm", Cores: 4, WarmupMs: 150, MeasureMs: 8000,
			FTL: true, OPPct: 15,
			Jobs: []scenario.Job{
				{Name: "db", Class: "L", Count: 4},
				{Name: "rewrite", Class: "T", Count: 4, Pattern: "random",
					ReadPct: new(int), IODepth: 4, TrimEvery: 8},
			},
		},
		shifts: 2,
	}
)

// shiftSeed is the scenario seed of one shift: it moves every tenant's
// random stream, so each shift is a fresh draw of the same load.
func shiftSeed(seed uint64, shift int) uint64 { return seed*1_000_003 + uint64(shift)*7_919 }

type cellCase struct {
	name string
	spec harness.CellSpec
}

func (l cellLoad) cases(seed uint64) ([]cellCase, error) {
	var out []cellCase
	for i := 0; i < l.shifts; i++ {
		for _, k := range harness.AllKinds {
			sc, err := l.base.WithStack(string(k))
			if err != nil {
				return nil, err
			}
			sc.Seed = shiftSeed(seed, i)
			spec, err := sc.CellSpec()
			if err != nil {
				return nil, err
			}
			out = append(out, cellCase{name: fmt.Sprintf("%s/%d", k, i), spec: spec})
		}
	}
	return out, nil
}

// cellSample is what one cell cost and did.
type cellSample struct {
	name       string // the cell's case
	build, run time.Duration
	print      string
	// Simulated work: I/Os issued (Σ Job.Issued), measured-window
	// completions, engine events, and media pages.
	ios, done, events, pages uint64
	recovery                 harness.RecoveryCounters
	ftl                      ftl.Stats
	// Seam timings (decorated cells only) and heap bytes allocated by
	// Cell.Run (when asked for).
	submitNs, ftlNs int64
	submitCalls     uint64
	allocBytes      float64
}

// runCell builds and runs one cell. A panic in modeling code is reported
// as an error, so the run counts it as a failure and goes on. A forced
// collection first keeps a collection of the previous cell's garbage out of
// this cell's set-up and run (an overload cell leaves hundreds of MB
// behind), so each cell starts from the same heap.
func runCell(c cellCase, decorated, allocs bool, spans *spanLog) (s cellSample, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", c.name, p)
		}
	}()
	s.name = c.name
	runtime.GC()
	t0 := spans.now()
	sw := walltime.Start()
	cell := harness.BuildCell(c.spec)
	s.build = sw.Elapsed()
	spans.add("cell", "build "+c.name, 0, -1, t0)
	var st *timedStack
	var tf *timedFTL
	if decorated {
		st, tf = decorate(cell)
	}
	media := cell.Env.Dev.Media().Stats()
	var before runtimeSample
	if allocs {
		before = readRuntime()
	}
	t1 := spans.now()
	sw = walltime.Start()
	res := cell.Run(c.spec.Warmup, c.spec.Measure)
	s.run = sw.Elapsed()
	if allocs {
		s.allocBytes = readRuntime().allocBytes - before.allocBytes
	}
	spans.add("cell", "run "+c.name, 0, -1, t1)

	data, err := json.Marshal(res)
	if err != nil {
		return s, fmt.Errorf("%s: encoding result: %w", c.name, err)
	}
	s.print = fingerprint(data)
	for _, j := range cell.Mix.AllJobs() {
		s.ios += j.Issued()
		s.done += j.Done.Ops
	}
	s.events = cell.Env.Eng.Executed
	after := cell.Env.Dev.Media().Stats()
	s.pages = after.PagesRead + after.PagesWritten - media.PagesRead - media.PagesWritten
	s.recovery = res.Recovery
	if cell.Env.FTL != nil {
		s.ftl = cell.Env.FTL.Stats()
	}
	if st != nil {
		s.submitNs, s.submitCalls = st.hostNs, st.calls
	}
	if tf != nil {
		s.ftlNs = tf.hostNs
	}
	return s, nil
}

// cellPhase runs whole rounds until budget is spent (at least one) and
// checks every cell against its reference fingerprint.
func (r *run) cellPhase(cases []cellCase, ref []string, budget time.Duration, decorated, allocs bool, spans *spanLog) [][]cellSample {
	var rounds [][]cellSample
	sw := walltime.Start()
	for len(rounds) == 0 || sw.Elapsed() < budget {
		r.cal.calibrate()
		round := make([]cellSample, 0, len(cases))
		for i, c := range cases {
			r.attempted++
			s, err := runCell(c, decorated, allocs, spans)
			if err != nil {
				r.fail("%v", err)
				continue
			}
			if s.print != ref[i] {
				r.fail("%s: output differs from the warm-up round (decorated=%v)", c.name, decorated)
			}
			round = append(round, s)
		}
		rounds = append(rounds, round)
	}
	return rounds
}

// cellStats condenses timed rounds. A cell operation is 1000 simulated
// I/Os: per-I/O cost is what a cell's user pays, and it stays put across
// seeds even where one cell's work does not (an overload cell's retry
// storm varies by ±20% between seed shifts, a whole round's by ±2%).
type cellStats struct {
	// roundMsPerKIO is each round's Cell.Run host ms per 1000 I/Os issued.
	roundMsPerKIO  []float64
	runMs, buildMs []float64 // per cell
	// setupS is a round's set-up: each cell's median BuildCell over the
	// rounds, summed over the round's cells. A cheap round's set-up is
	// under a millisecond, so one slow build would move a round's sum, and
	// an overload run has only five or six rounds to take a median over.
	setupS float64
}

func summarizeCells(rounds [][]cellSample) cellStats {
	var st cellStats
	builds := map[string][]float64{}
	for _, round := range rounds {
		var run time.Duration
		var ios uint64
		for _, s := range round {
			st.runMs = append(st.runMs, ms(s.run))
			st.buildMs = append(st.buildMs, ms(s.build))
			builds[s.name] = append(builds[s.name], s.build.Seconds())
			run += s.run
			ios += s.ios
		}
		st.roundMsPerKIO = append(st.roundMsPerKIO, ratio(ms(run), float64(ios)/1000))
	}
	for _, b := range builds {
		st.setupS += median(b)
	}
	return st
}

func runCells(r *run, l cellLoad) error {
	// One CPU for the Go runtime: a cell's wall time then includes the
	// garbage collector's work, which would otherwise run on the other
	// CPU, so it is the per-core cost whatever the other CPU is doing.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cases, err := l.cases(r.seed)
	if err != nil {
		return err
	}
	ref := make([]string, len(cases))
	for i, c := range cases {
		r.attempted++
		s, err := runCell(c, false, false, nil)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		ref[i] = s.print
		r.prints[c.name] = s.print
	}

	rss := sampleRSS("self")
	untraced := r.cellPhase(cases, ref, r.untracedPhase(), false, r.traced, nil)
	r.set("rss_mb", rss.stop())
	st := summarizeCells(untraced)
	r.set("wall_p50_ms", median(st.roundMsPerKIO))
	r.set("setup_s", st.setupS)
	r.note("an operation is 1000 simulated I/Os; p50 over %d rounds of %d cells; setup sums each cell's median BuildCell over the rounds",
		len(untraced), len(cases))
	if !r.traced {
		return nil
	}

	var runNs, events, ios, allocs float64
	for _, round := range untraced {
		for _, s := range round {
			runNs += float64(s.run)
			events += float64(s.events)
			ios += float64(s.ios)
			allocs += s.allocBytes
		}
	}
	r.set("harness.build_ms_p50", median(st.buildMs))
	r.set("harness.run_ms_p50", median(st.runMs))
	r.set("sim.host_ns_per_event", ratio(runNs, events))
	r.set("runtime.alloc_bytes_per_io", ratio(allocs, ios))

	var traced [][]cellSample
	if err := r.profiled(func() {
		traced = r.cellPhase(cases, ref, r.seconds-r.untracedPhase(), true, false, r.spans)
	}); err != nil {
		return err
	}
	var tot struct {
		run, submitNs, ftlNs, calls, ios, done, events, pages float64
		retries, requeues, hostPages, flashPages, gcMoved     float64
	}
	for _, round := range traced {
		for _, s := range round {
			tot.run += float64(s.run)
			tot.submitNs += float64(s.submitNs)
			tot.ftlNs += float64(s.ftlNs)
			tot.calls += float64(s.submitCalls)
			tot.ios += float64(s.ios)
			tot.done += float64(s.done)
			tot.events += float64(s.events)
			tot.pages += float64(s.pages)
			tot.retries += float64(s.recovery.RetryAttempts)
			tot.requeues += float64(s.recovery.Requeues)
			tot.hostPages += float64(s.ftl.HostPagesWritten)
			tot.flashPages += float64(s.ftl.FlashPagesWritten)
			tot.gcMoved += float64(s.ftl.GCPagesMoved)
		}
	}
	var roundIOs float64
	for _, s := range traced[0] {
		roundIOs += float64(s.ios)
	}
	r.set("workload.ios", roundIOs)
	r.set("sim.events_per_io", ratio(tot.events, tot.ios))
	r.set("flash.pages_per_io", ratio(tot.pages, tot.ios))
	r.set("stack.submit_share", ratio(tot.submitNs, tot.run))
	r.set("stack.submit_calls_per_io", ratio(tot.calls, tot.ios))
	r.set("stackbase.retry_attempts_per_io", ratio(tot.retries, tot.ios))
	r.set("stackbase.requeues_per_io", ratio(tot.requeues, tot.ios))
	r.set("ftl.submit_share", ratio(tot.ftlNs, tot.run))
	r.set("ftl.write_amplification", ratio(tot.flashPages, tot.hostPages))
	r.set("ftl.gc_pages_moved_per_io", ratio(tot.gcMoved, tot.done))

	return r.finishTrace(median(st.roundMsPerKIO), median(summarizeCells(traced).roundMsPerKIO))
}
