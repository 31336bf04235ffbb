package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"daredevil/internal/ftl"
	"daredevil/internal/harness"
	"daredevil/internal/walltime"
)

// experiment is one ddbench experiment, called through its harness.Run*
// entry point. Only ext-fault takes a seed.
type experiment struct {
	name string
	run  func(sc harness.Scale, faultSeed uint64) any
}

// experiments is every ddbench experiment, in `ddbench all` order.
var experiments = []experiment{
	{"table1", func(harness.Scale, uint64) any { return harness.RunTable1() }},
	{"fig2", func(sc harness.Scale, _ uint64) any { return harness.RunFig2(sc) }},
	{"fig6", func(sc harness.Scale, _ uint64) any { return harness.RunFig6(sc) }},
	{"fig7", func(sc harness.Scale, _ uint64) any { return harness.RunFig7(sc) }},
	{"fig8", func(sc harness.Scale, _ uint64) any { return harness.RunFig8(sc) }},
	{"fig9", func(sc harness.Scale, _ uint64) any { return harness.RunFig9(sc) }},
	{"fig10", func(sc harness.Scale, _ uint64) any { return harness.RunFig10(sc) }},
	{"fig11", func(sc harness.Scale, _ uint64) any { return harness.RunFig11(sc) }},
	{"fig12", func(sc harness.Scale, _ uint64) any { return harness.RunFig12(sc) }},
	{"fig13", func(sc harness.Scale, _ uint64) any { return harness.RunFig13(sc) }},
	{"fig14", func(sc harness.Scale, _ uint64) any { return harness.RunFig14(sc) }},
	{"ext-sched", func(sc harness.Scale, _ uint64) any { return harness.RunExtSchedulers(sc) }},
	{"ext-wrr", func(sc harness.Scale, _ uint64) any { return harness.RunExtWRR(sc) }},
	{"ext-poll", func(sc harness.Scale, _ uint64) any { return harness.RunExtPolling(sc) }},
	{"ext-virtio", func(sc harness.Scale, _ uint64) any { return harness.RunExtVirtio(sc) }},
	{"ext-webapp", func(sc harness.Scale, _ uint64) any { return harness.RunExtWebapp(sc) }},
	{"ext-gc", func(sc harness.Scale, _ uint64) any { return harness.RunExtGC(sc) }},
	{"ext-fault", func(sc harness.Scale, seed uint64) any { return harness.RunExtFault(seed, sc) }},
}

// faultSeed maps the benchmark seed onto ext-fault's fault stream so the
// default seed reproduces `ddbench all` exactly.
func faultSeed(seed uint64) uint64 { return harness.DefaultFaultSeed + seed - defaultSeed }

// gridPass is one pass over every experiment.
type gridPass struct {
	wall  time.Duration
	exp   []time.Duration
	print []string
}

// runGridPass calls every experiment once. Only the harness.Run* calls are
// timed; encoding their results (the bytes `ddbench -json` writes) is not.
func runGridPass(sc harness.Scale, seed uint64, spans *spanLog) (p gridPass, errs []error) {
	p.exp = make([]time.Duration, len(experiments))
	p.print = make([]string, len(experiments))
	for i, e := range experiments {
		t0 := spans.now()
		d, data, err := runExperiment(e, sc, faultSeed(seed))
		spans.add("experiment", e.name, 0, -1, t0)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		p.exp[i] = d
		p.wall += d
		p.print[i] = fingerprint(data)
	}
	return p, errs
}

func runExperiment(e experiment, sc harness.Scale, seed uint64) (d time.Duration, data []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", e.name, p)
		}
	}()
	sw := walltime.Start()
	res := e.run(sc, seed)
	d = sw.Elapsed()
	data, err = json.MarshalIndent(res, "", "  ")
	if err != nil {
		return d, nil, fmt.Errorf("%s: encoding result: %w", e.name, err)
	}
	return d, append(data, '\n'), nil
}

// gridSetup builds one machine of every shape the grid's cells start
// from: both testbeds under all six stacks, plus an aged FTL device whose
// preconditioning ext-gc pays per cell.
func gridSetup() time.Duration {
	sw := walltime.Start()
	for _, m := range []harness.Machine{harness.SVM(4), harness.WSM()} {
		for _, k := range harness.AllKinds {
			harness.NewEnv(m, k)
		}
	}
	aged := harness.SVM(4)
	cfg := ftl.DefaultConfig()
	aged.FTL = &cfg
	harness.NewEnv(aged, harness.DareFull)
	return sw.Elapsed()
}

// setupsPerPass is how many gridSetup samples are taken before each pass.
// Each follows a forced collection, so a collection of the pass before's
// garbage is not charged to set-up.
const setupsPerPass = 3

// gridPhase runs passes until budget is spent (at least one) and checks
// every experiment against its reference fingerprint. Before each pass it
// times setupsPerPass gridSetups, so set-up samples spread over the phase
// like the passes do.
func (r *run) gridPhase(sc harness.Scale, ref []string, budget time.Duration, spans *spanLog) (passes []gridPass, setups []float64) {
	sw := walltime.Start()
	for len(passes) == 0 || sw.Elapsed() < budget {
		for range setupsPerPass {
			runtime.GC()
			setups = append(setups, gridSetup().Seconds())
		}
		r.cal.calibrate()
		passes = append(passes, r.checkedPass(sc, ref, spans, "timed pass"))
	}
	return passes, setups
}

// checkedPass runs one pass and checks it against the warm-up pass; what
// names the pass in failure messages.
func (r *run) checkedPass(sc harness.Scale, ref []string, spans *spanLog, what string) gridPass {
	p, errs := runGridPass(sc, r.seed, spans)
	r.attempted += len(experiments)
	for _, err := range errs {
		r.fail("%v", err)
	}
	for i, e := range experiments {
		if p.print[i] != "" && p.print[i] != ref[i] {
			r.fail("%s: %s output differs from the warm-up pass", e.name, what)
		}
	}
	return p
}

func runGrid(r *run, sc harness.Scale) error {
	jobs := runtime.GOMAXPROCS(0)
	harness.SetParallelism(jobs)
	warm, errs := runGridPass(sc, r.seed, nil)
	r.attempted += len(experiments)
	for _, err := range errs {
		r.fail("%v", err)
	}
	for i, e := range experiments {
		r.prints[e.name] = warm.print[i]
	}

	rss := sampleRSS("self")
	untraced, setups := r.gridPhase(sc, warm.print, r.untracedPhase(), nil)
	r.set("rss_mb", rss.stop())
	r.set("setup_s", median(setups))
	walls := make([]float64, len(untraced))
	for i, p := range untraced {
		walls[i] = ms(p.wall)
	}
	r.set("wall_p50_ms", median(walls))
	r.note("an operation is one pass of %d experiments at -j%d; p50 over %d passes; setup is the median of %d machine-shape builds, %d before each pass",
		len(experiments), jobs, len(walls), len(setups), setupsPerPass)
	if !r.traced {
		return nil
	}

	for i, e := range experiments {
		var xs []float64
		for _, p := range untraced {
			xs = append(xs, ms(p.exp[i]))
		}
		r.set("harness.exp_ms."+e.name, median(xs))
	}
	// The -j1 pass checks that fan-out does not change a byte and prices
	// it; with fewer CPUs than workers the ratio would mean nothing.
	if runtime.NumCPU() >= jobs {
		harness.SetParallelism(1)
		serial := r.checkedPass(sc, warm.print, nil, "-j1 pass")
		harness.SetParallelism(jobs)
		r.set("harness.speedup", ratio(ms(serial.wall), median(walls)))
	}

	var traced []gridPass
	if err := r.profiled(func() {
		traced, _ = r.gridPhase(sc, warm.print, r.seconds-r.untracedPhase(), r.spans)
	}); err != nil {
		return err
	}
	tracedWalls := make([]float64, len(traced))
	for i, p := range traced {
		tracedWalls[i] = ms(p.wall)
	}
	return r.finishTrace(median(walls), median(tracedWalls))
}
