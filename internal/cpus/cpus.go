// Package cpus models CPU cores as FIFO work processors on the simulation
// engine. A core executes one work item at a time; interrupt work (ISRs)
// queues ahead of task work (tenant submissions), mirroring how hardirq
// handling takes precedence over process context in the kernel. Work items
// can report extra busy time discovered during execution — that is how NVMe
// submission-queue lock waits charge the submitting core.
package cpus

import (
	"fmt"

	"daredevil/internal/sim"
)

// OwnerNone marks kernel work not attributable to a tenant (ISRs, steering).
const OwnerNone = -1

// Work is one unit of CPU execution.
type Work struct {
	// Cost is the nominal CPU time the item occupies.
	Cost sim.Duration
	// Owner tags the tenant the work belongs to; a change of owner between
	// consecutive task items pays the context-switch cost. Use OwnerNone
	// for kernel work.
	Owner int
	// Fn runs when the item finishes executing. It may return extra busy
	// time (e.g. time spent spinning on an NSQ lock), which extends the
	// core's occupancy before the next item starts.
	Fn func() sim.Duration
	// ArgFn is the allocation-free alternative to Fn: a long-lived
	// function (bound once per device, not per submission) receiving Arg.
	// Binding a method value per queue or per interrupt allocates a
	// closure; passing the receiver through Arg does not. When ArgFn is
	// set it runs instead of Fn.
	ArgFn func(any) sim.Duration
	Arg   any
}

// Config holds per-core cost knobs.
type Config struct {
	// CtxSwitch is charged when consecutive task items belong to different
	// owners (Linux context switch, ~1-2µs).
	CtxSwitch sim.Duration
}

// DefaultConfig returns the costs used across the evaluation.
func DefaultConfig() Config {
	return Config{CtxSwitch: 1200 * sim.Nanosecond}
}

type fifo struct {
	items []Work
	head  int
}

func (q *fifo) push(w Work) { q.items = append(q.items, w) }

func (q *fifo) pop() (Work, bool) {
	if q.head >= len(q.items) {
		return Work{}, false
	}
	// The popped entry is left stale rather than zeroed: its referents
	// (pre-bound continuations and pooled queues) live as long as the
	// machine anyway, and zeroing three pointer words per executed work
	// item is pure write-barrier traffic. Compaction below overwrites
	// stale entries wholesale.
	w := q.items[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return w, true
}

func (q *fifo) len() int { return len(q.items) - q.head }

// Core is one simulated CPU.
type Core struct {
	ID  int
	eng *sim.Engine
	cfg Config

	irqQ  fifo
	taskQ fifo

	running   bool
	lastOwner int

	// In-flight work. A core executes one item at a time, so the current
	// item's state lives here instead of in a per-dispatch closure — the
	// dispatch path allocates nothing. finishFn/dispatchFn are the two
	// continuations, bound once at construction.
	curFn      func() sim.Duration
	curArgFn   func(any) sim.Duration
	curArg     any
	curCost    sim.Duration
	curIRQ     bool
	finishFn   func()
	dispatchFn func()

	// BusyTime accumulates all executed work including context switches
	// and reported extra time.
	BusyTime sim.Duration
	// IRQBusyTime is the share of BusyTime spent in interrupt work.
	IRQBusyTime sim.Duration
	// Switches counts charged context switches.
	Switches uint64
}

// Pool is the machine's set of cores.
type Pool struct {
	cores []*Core
	cfg   Config
}

// NewPool creates n cores on engine eng.
func NewPool(eng *sim.Engine, n int, cfg Config) *Pool {
	if n <= 0 {
		panic("cpus: pool needs at least one core")
	}
	p := &Pool{cfg: cfg}
	for i := 0; i < n; i++ {
		c := &Core{ID: i, eng: eng, cfg: cfg, lastOwner: OwnerNone}
		// Seed both queues with a page of capacity: the append-growth
		// ladder from nil would otherwise be paid per core on every fresh
		// cell, and busy cores reach tens of queued work items routinely.
		c.taskQ.items = make([]Work, 0, 64)
		c.irqQ.items = make([]Work, 0, 16)
		c.finishFn = c.finish
		c.dispatchFn = c.dispatch
		p.cores = append(p.cores, c)
	}
	return p
}

// N reports the number of cores.
func (p *Pool) N() int { return len(p.cores) }

// Core returns core i.
func (p *Pool) Core(i int) *Core {
	if i < 0 || i >= len(p.cores) {
		panic(fmt.Sprintf("cpus: core %d out of range [0,%d)", i, len(p.cores)))
	}
	return p.cores[i]
}

// Cores returns all cores.
func (p *Pool) Cores() []*Core { return p.cores }

// TotalBusy sums busy time over all cores.
func (p *Pool) TotalBusy() sim.Duration {
	var t sim.Duration
	for _, c := range p.cores {
		t += c.BusyTime
	}
	return t
}

// Utilization reports mean utilization across cores over elapsed time.
func (p *Pool) Utilization(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := p.TotalBusy().Seconds() / (elapsed.Seconds() * float64(len(p.cores)))
	if u > 1 {
		u = 1
	}
	return u
}

// Submit enqueues task work on the core. An idle core with nothing
// queued starts the item at once, without the round trip through taskQ.
//
//ddvet:hotpath
func (c *Core) Submit(w Work) {
	if !c.running && c.irqQ.len() == 0 && c.taskQ.len() == 0 {
		c.running = true
		c.start(w, false)
		return
	}
	c.taskQ.push(w)
	c.kick()
}

// SubmitIRQ enqueues interrupt work, which runs before any pending task work.
//
//ddvet:hotpath
func (c *Core) SubmitIRQ(w Work) {
	w.Owner = OwnerNone
	c.irqQ.push(w)
	c.kick()
}

// QueueLen reports pending (not yet started) work items.
func (c *Core) QueueLen() int { return c.irqQ.len() + c.taskQ.len() }

// Busy reports whether the core is executing an item.
func (c *Core) Busy() bool { return c.running }

//ddvet:hotpath
func (c *Core) kick() {
	if c.running {
		return
	}
	c.running = true
	c.dispatch()
}

// dispatch starts the next queued item, interrupt work first, or marks
// the core idle when both queues are empty.
//
//ddvet:hotpath
func (c *Core) dispatch() {
	if w, ok := c.irqQ.pop(); ok {
		c.start(w, true)
	} else if w, ok := c.taskQ.pop(); ok {
		c.start(w, false)
	} else {
		c.running = false
	}
}

// start begins executing w, charging a context switch when a task item
// changes owner, and schedules its finish.
//
//ddvet:hotpath
func (c *Core) start(w Work, isIRQ bool) {
	cost := w.Cost
	if !isIRQ && w.Owner != c.lastOwner {
		if c.lastOwner != OwnerNone || w.Owner != OwnerNone {
			cost += c.cfg.CtxSwitch
			c.Switches++
		}
		c.lastOwner = w.Owner
	}
	c.curFn, c.curArgFn, c.curArg, c.curCost, c.curIRQ = w.Fn, w.ArgFn, w.Arg, cost, isIRQ
	c.eng.After(cost, c.finishFn)
}

// finish completes the in-flight item: run its callback, charge any extra
// busy time it reports, then dispatch the next item. Work submitted from
// inside the callback only queues (running is still true), so the current
// item's fields cannot be overwritten before they are read here.
//
//ddvet:hotpath
func (c *Core) finish() {
	var extra sim.Duration
	switch {
	case c.curArgFn != nil:
		extra = c.curArgFn(c.curArg)
		c.curArgFn, c.curArg = nil, nil
	case c.curFn != nil:
		extra = c.curFn()
		c.curFn = nil
	}
	if extra < 0 {
		extra = 0
	}
	total := c.curCost + extra
	c.BusyTime += total
	if c.curIRQ {
		c.IRQBusyTime += total
	}
	if extra > 0 {
		c.eng.After(extra, c.dispatchFn)
	} else {
		c.dispatch()
	}
}
