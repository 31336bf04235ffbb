package main

import (
	"fmt"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/flash"
	"daredevil/internal/ftl"
	"daredevil/internal/harness"
	"daredevil/internal/nvme"
	"daredevil/internal/scenario"
	"daredevil/internal/sim"
	"daredevil/internal/walltime"
)

// The layer ladder prices each layer alone, bottom up: engine events and
// timers, core work items, flash media calls, the NVMe device without a
// stack, each stack's submit path without the workload package, FTL
// preconditioning and writes, the profiler's overhead on a short cell, and
// scenario documents turned into cell specs. The rungs above (one cell,
// the grid, the daemon) are the workloads themselves. Every rung is built
// untimed, then its work is timed ladderReps times and the median cost per
// unit reported.

const ladderReps = 3

// perUnit times work built by build, ladderReps times, and returns the
// median host nanoseconds per unit.
func perUnit(units int, build func() func()) float64 {
	xs := make([]float64, 0, ladderReps)
	for i := 0; i < ladderReps; i++ {
		work := build()
		sw := walltime.Start()
		work()
		xs = append(xs, float64(sw.Elapsed())/float64(units))
	}
	return median(xs)
}

func (r *run) ladder() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ladder panicked: %v", p)
		}
	}()
	sw := walltime.Start()
	r.set("sim.ladder_ns_per_event", perUnit(ladderEvents, engineChain))
	r.set("sim.ladder_ns_per_timer", perUnit(ladderTimers, timerChurn))
	r.set("cpus.ladder_ns_per_work", perUnit(ladderWorks, workChain))
	r.set("flash.ladder_ns_per_read4k", perUnit(ladderMediaCalls, mediaCalls(4096, flash.Read)))
	r.set("flash.ladder_ns_per_write128k", perUnit(ladderMediaCalls, mediaCalls(128<<10, flash.Program)))
	r.set("nvme.ladder_ns_per_io", perUnit(ladderIOs, deviceLoop))
	for _, k := range harness.AllKinds {
		r.set("stack.ladder_ns_per_io."+string(k), perUnit(ladderIOs, stackLoop(k)))
	}
	r.set("ftl.ladder_build_ms", perUnit(1, ftlBuild)/1e6)
	r.set("ftl.ladder_ns_per_write4k", perUnit(ladderFTLWrites, ftlWrites))
	overhead, err := profOverhead()
	if err != nil {
		return err
	}
	r.set("prof.ladder_overhead_frac", overhead)
	docs, err := defaultServeMix.schedule(r.seed, defaultServeMix.warmup)
	if err != nil {
		return err
	}
	nsPerDoc := perUnit(len(docs), func() func() { return func() { specDocs(docs) } })
	r.set("scenario.ladder_us_per_doc", nsPerDoc/1e3)
	r.note("ladder took %v", sw.Elapsed())
	return nil
}

// Rung sizes: each timed repetition takes tens of milliseconds.
const (
	ladderEvents     = 2_000_000
	ladderTimers     = 1_000_000
	ladderWorks      = 400_000
	ladderMediaCalls = 400_000
	ladderIOs        = 40_000
	ladderFTLWrites  = 40_000
)

// engineChain is a self-rescheduling AfterArg chain.
func engineChain() func() {
	e := sim.New()
	left := ladderEvents
	var step func(any)
	step = func(any) {
		if left--; left > 0 {
			e.AfterArg(10, step, nil)
		}
	}
	return func() {
		e.AfterArg(10, step, nil)
		e.Run()
	}
}

// timerChurn arms cancellable timers and stops every other one.
func timerChurn() func() {
	e := sim.New()
	fn := func() {}
	return func() {
		for i := 0; i < ladderTimers; i++ {
			tm := e.AfterTimer(1, fn)
			if i%2 == 0 {
				tm.Stop()
			}
			e.Step()
		}
	}
}

// workChain keeps one work item in flight on each of 4 cores, each item
// submitting its successor when it finishes.
func workChain() func() {
	eng := sim.New()
	pool := cpus.NewPool(eng, 4, cpus.DefaultConfig())
	left := ladderWorks
	var next func(any) sim.Duration
	next = func(arg any) sim.Duration {
		if left > 0 {
			left--
			core := arg.(*cpus.Core)
			core.Submit(cpus.Work{Cost: sim.Microsecond, Owner: 1, ArgFn: next, Arg: core})
		}
		return 0
	}
	return func() {
		for _, c := range pool.Cores() {
			next(c)
		}
		eng.Run()
	}
}

// mediaCalls drives flash.Device.SubmitIO directly at one call per
// simulated microsecond.
func mediaCalls(size int64, op flash.Op) func() func() {
	return func() func() {
		d := flash.New(harness.SVM(4).NVMe.Flash)
		rng := sim.NewRand(1)
		return func() {
			var now sim.Time
			for i := 0; i < ladderMediaCalls; i++ {
				now = now.Add(sim.Microsecond)
				d.SubmitIO(now, rng.Int63n(1<<30/size)*size, size, op)
			}
		}
	}
}

// ioLoop keeps depth 4 KB random reads in flight per tenant: each is
// issued from a cpus.Work on the tenant's core through submit and re-issued
// from its OnComplete, until total have completed.
type ioLoop struct {
	eng        *sim.Engine
	pool       *cpus.Pool
	submit     func(*block.Request) sim.Duration
	rng        *sim.Rand
	issued     int
	done       int
	total      int
	nextID     uint64
	issueFn    func(any) sim.Duration
	completeFn func(*block.Request)
}

func newIOLoop(eng *sim.Engine, pool *cpus.Pool, submit func(*block.Request) sim.Duration, total int) *ioLoop {
	l := &ioLoop{eng: eng, pool: pool, submit: submit, rng: sim.NewRand(7), total: total}
	l.issueFn = func(arg any) sim.Duration { return l.submit(arg.(*block.Request)) }
	l.completeFn = func(rq *block.Request) {
		l.done++
		l.issue(rq, rq.Tenant)
	}
	return l
}

func (l *ioLoop) issue(rq *block.Request, t *block.Tenant) {
	if l.issued == l.total {
		return
	}
	l.issued++
	l.nextID++
	*rq = block.Request{
		ID: l.nextID, Tenant: t, Namespace: t.Namespace,
		Offset: l.rng.Int63n(1<<18) * 4096, Size: 4096, Op: block.OpRead,
		IssueTime: l.eng.Now(), NSQ: -1, OnComplete: l.completeFn,
	}
	l.pool.Core(t.Core).Submit(cpus.Work{Cost: sim.Microsecond, Owner: t.ID, ArgFn: l.issueFn, Arg: rq})
}

// run fills every tenant's depth and advances virtual time until all
// requests completed. Stacks keep periodic timers, so the engine never
// drains on its own.
func (l *ioLoop) run(tenants []*block.Tenant, depth int) {
	for _, t := range tenants {
		for i := 0; i < depth; i++ {
			l.issue(&block.Request{}, t)
		}
	}
	for l.done < l.total {
		l.eng.RunUntil(l.eng.Now().Add(sim.Millisecond))
	}
}

func ladderTenants(n int) []*block.Tenant {
	ts := make([]*block.Tenant, n)
	for i := range ts {
		class := block.ClassRT
		if i >= 4 {
			class = block.ClassBE
		}
		ts[i] = &block.Tenant{ID: i + 1, Name: "ladder", Class: class, Core: i % 4}
	}
	return ts
}

// deviceLoop drives nvme.Device.Enqueue (with doorbell) on the issuing
// core's NSQ, with no stack.
func deviceLoop() func() {
	eng := sim.New()
	pool := cpus.NewPool(eng, 4, cpus.DefaultConfig())
	dev := nvme.New(eng, pool, harness.SVM(4).NVMe)
	l := newIOLoop(eng, pool, func(rq *block.Request) sim.Duration {
		ok, overhead := dev.Enqueue(eng.Now(), rq.Tenant.Core, rq, true)
		if !ok {
			panic("ladder: device rejected a request on an unloaded NSQ")
		}
		return overhead
	}, ladderIOs)
	return func() { l.run(ladderTenants(4), 8) }
}

// stackLoop drives one stack's Submit with 4 L-class and 4 T-class
// tenants.
func stackLoop(kind harness.StackKind) func() func() {
	return func() func() {
		env := harness.NewEnv(harness.SVM(4), kind)
		tenants := ladderTenants(8)
		for _, t := range tenants {
			env.Stack.Register(t)
		}
		l := newIOLoop(env.Eng, env.Pool, env.Stack.Submit, ladderIOs)
		return func() { l.run(tenants, 4) }
	}
}

// agedFTLConfig is the aged device of cell-aged (OP 15%).
func agedFTLConfig() ftl.Config {
	cfg := ftl.DefaultConfig()
	cfg.OPPct = 15
	return cfg
}

// ftlBuild times ftl.New alone: mapping tables plus preconditioning.
func ftlBuild() func() {
	return func() {
		ftl.New(sim.New(), flash.New(harness.SVM(4).NVMe.Flash), agedFTLConfig())
	}
}

// ftlWrites issues 4 KB random writes through ftl.Device.SubmitIO on the
// preconditioned device, advancing virtual time 20µs per write so
// background GC runs between them.
func ftlWrites() func() {
	eng := sim.New()
	f := ftl.New(eng, flash.New(harness.SVM(4).NVMe.Flash), agedFTLConfig())
	pages := f.LogicalPages()
	rng := sim.NewRand(3)
	return func() {
		for i := 0; i < ladderFTLWrites; i++ {
			f.SubmitIO(eng.Now(), rng.Int63n(pages)*4096, 4096, flash.Program)
			eng.RunUntil(eng.Now().Add(20 * sim.Microsecond))
		}
	}
}

// profOverhead runs the same short steady cell with CellSpec.Profile off
// and on, alternating, and reports median(on) / median(off) - 1.
func profOverhead() (float64, error) {
	sc := cellSteady.base
	sc.Stack = string(harness.DareFull)
	sc.WarmupMs, sc.MeasureMs = 20, 100
	spec, err := sc.CellSpec()
	if err != nil {
		return 0, err
	}
	var off, on []float64
	for i := 0; i < ladderReps; i++ {
		for _, profile := range []bool{false, true} {
			spec.Profile = profile
			c := harness.BuildCell(spec)
			sw := walltime.Start()
			c.Run(spec.Warmup, spec.Measure)
			if profile {
				on = append(on, float64(sw.Elapsed()))
			} else {
				off = append(off, float64(sw.Elapsed()))
			}
		}
	}
	return ratio(median(on), median(off)) - 1, nil
}

// specDocs turns serve-mix request documents into cell specs, the way
// ddserve admits them: Parse, Expand, Hash and CellSpec per grid point.
func specDocs(reqs []request) {
	for _, rq := range reqs {
		sc, err := scenario.Parse(rq.body)
		if err != nil {
			panic(fmt.Sprintf("ladder: serve-mix document does not parse: %v", err))
		}
		points, err := sc.Expand()
		if err != nil {
			panic(fmt.Sprintf("ladder: serve-mix document does not expand: %v", err))
		}
		for _, p := range points {
			p.Scenario.Hash()
			if _, err := p.Scenario.CellSpec(); err != nil {
				panic(fmt.Sprintf("ladder: serve-mix document has no cell spec: %v", err))
			}
		}
	}
}
