// Package nvme models an NVMe SSD as seen by the kernel: submission and
// completion queue pairs (NSQ/NCQ) in shared memory, a controller that
// round-robins across doorbell-rung NSQs with a bounded in-flight command
// window, namespaces that share the controller's queue set, CQE posting, and
// interrupt delivery to per-NCQ IRQ cores with configurable coalescing.
//
// The stacks (blk-mq, blk-switch, static partitioning, Daredevil) differ
// only in how they enqueue into NSQs and what completion policy they assign
// to NCQs — exactly the degrees of freedom the paper manipulates.
package nvme

import (
	"errors"
	"fmt"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/fault"
	"daredevil/internal/flash"
	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

// Config describes the device and the driver-visible costs.
type Config struct {
	// NumNSQ and NumNCQ size the queue sets (SV-M: 64/64, WS-M: 128/24).
	NumNSQ int
	NumNCQ int
	// QueueDepth is entries per NSQ (and per NCQ), 1024 on the tested SSDs.
	QueueDepth int
	// MaxInflight bounds commands the controller has fetched but not
	// completed — the internal buffer whose exhaustion creates
	// backpressure into NSQs.
	MaxInflight int

	// FetchCost is the fixed cost to fetch one SQE (doorbell read + DMA).
	FetchCost sim.Duration
	// FetchPerPage is the per-page decompose cost; bulky T-requests take
	// proportionally longer to fetch and decompose (§2.3).
	FetchPerPage sim.Duration
	// CQEPostCost is the controller-side cost to post one CQE.
	CQEPostCost sim.Duration
	// IRQLatency is interrupt delivery latency to the CPU.
	IRQLatency sim.Duration
	// ISREntry is the fixed ISR entry/exit cost.
	ISREntry sim.Duration
	// ISRPerCQE is the driver cost to process one CQE inside the ISR.
	ISRPerCQE sim.Duration
	// CrossCoreCQE is the extra per-CQE cost when the completing core is
	// not the submitting core (cache-line bouncing; §5.1, §7.5).
	CrossCoreCQE sim.Duration
	// SQLockHold is the NSQ tail-lock critical section per enqueue.
	SQLockHold sim.Duration

	// CmdTimeout is the host-side per-command expiry (Linux
	// NVME_IO_TIMEOUT, 30s there; milliseconds here so fault windows
	// resolve within simulated runs). When a fetched command has not
	// completed within CmdTimeout the host walks the Linux escalation
	// ladder: Abort admin command, then controller reset (recovery.go).
	// Zero disables host recovery entirely — the pre-fault-model behavior.
	CmdTimeout sim.Duration
	// AbortCost is the admin-path latency of one Abort command (issue,
	// controller lookup, completion). Defaulted when CmdTimeout is set.
	AbortCost sim.Duration
	// ResetDelay is the controller re-initialization time after a reset:
	// no fetches happen and all enqueues are rejected until it elapses.
	// Defaulted when CmdTimeout is set.
	ResetDelay sim.Duration

	// MediaErrorRate injects per-command media failures with this
	// probability (0 disables). The controller retries a failed command up
	// to MediaRetries times before completing it with an error — the
	// kernel-visible behavior of NVMe command retries.
	MediaErrorRate float64
	// MediaRetries bounds controller-internal re-executions (default 3
	// when errors are enabled).
	MediaRetries int
	// ErrorSeed seeds the injection stream.
	ErrorSeed uint64

	// Arbitration selects the controller's fetch arbitration; the
	// evaluation uses the round-robin default (§2.1).
	Arbitration Arbitration
	// WRR holds per-class credits under ArbWeightedRoundRobin.
	WRR WRRWeights

	Flash flash.Config
}

// DefaultConfig returns device parameters used across the evaluation,
// shaped after the SV-M testbed (Samsung PM1735: 64 NQ pairs, depth 1024).
func DefaultConfig() Config {
	return Config{
		NumNSQ:       64,
		NumNCQ:       64,
		QueueDepth:   1024,
		MaxInflight:  64,
		FetchCost:    600 * sim.Nanosecond,
		FetchPerPage: 60 * sim.Nanosecond,
		CQEPostCost:  150 * sim.Nanosecond,
		IRQLatency:   2 * sim.Microsecond,
		ISREntry:     1 * sim.Microsecond,
		ISRPerCQE:    700 * sim.Nanosecond,
		CrossCoreCQE: 900 * sim.Nanosecond,
		SQLockHold:   250 * sim.Nanosecond,
		Arbitration:  ArbRoundRobin,
		WRR:          DefaultWRRWeights(),
		Flash:        flash.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumNSQ <= 0 || c.NumNCQ <= 0:
		return fmt.Errorf("nvme: queue counts must be positive (NSQ=%d NCQ=%d)", c.NumNSQ, c.NumNCQ)
	case c.NumNCQ > c.NumNSQ:
		return fmt.Errorf("nvme: NumNCQ (%d) cannot exceed NumNSQ (%d): every NCQ needs a paired NSQ", c.NumNCQ, c.NumNSQ)
	case c.QueueDepth <= 0:
		return fmt.Errorf("nvme: QueueDepth must be positive")
	case c.MaxInflight <= 0:
		return fmt.Errorf("nvme: MaxInflight must be positive")
	}
	if c.Arbitration == ArbWeightedRoundRobin {
		if err := c.WRR.validate(); err != nil {
			return err
		}
	}
	if c.MediaErrorRate < 0 || c.MediaErrorRate >= 1 {
		return fmt.Errorf("nvme: MediaErrorRate %v out of [0,1)", c.MediaErrorRate)
	}
	if c.CmdTimeout < 0 || c.AbortCost < 0 || c.ResetDelay < 0 {
		return fmt.Errorf("nvme: recovery latencies must be non-negative (CmdTimeout=%v AbortCost=%v ResetDelay=%v)",
			c.CmdTimeout, c.AbortCost, c.ResetDelay)
	}
	return c.Flash.Validate()
}

// CompletionPolicy controls how an NCQ turns CQEs into interrupts.
type CompletionPolicy struct {
	// PerRequest fires an interrupt for each CQE as soon as it posts (the
	// fast path nqreg assigns to high-priority NCQs).
	PerRequest bool
	// CoalesceMax delays the interrupt until this many CQEs are pending
	// (0 = interrupt on first CQE).
	CoalesceMax int
	// CoalesceDelay bounds how long a pending CQE may wait for the batch
	// to fill (0 with CoalesceMax 0 = vanilla behavior).
	CoalesceDelay sim.Duration
}

// command is an in-flight NVMe command. Commands are carved from the
// device's slab in chunks and recycled through its free-list; their
// continuations (flash completion, Abort completion) are the device's two
// pre-bound argument-carrying functions, so a command needs no per-object
// closures at all.
type command struct {
	rq      *block.Request
	nsq     *NSQ
	dev     *Device
	pages   int
	retries int

	// recovery state (see recovery.go)
	seq          uint64   // bumped per allocation; stale expiry refs compare it
	deadline     sim.Time // host expiry instant (CmdTimeout > 0 only)
	state        cmdState // lifecycle for timeout/abort/cancel races
	lost         bool     // fault injector abandoned the media op
	pendingDone  bool     // a doneFn event is scheduled
	pendingAbort bool     // an abortFn event is scheduled
	parked       bool     // released while an event still references it
}

// NSQ is a submission queue.
type NSQ struct {
	ID  int
	dev *Device
	ncq *NCQ

	entries []*command
	head    int
	// visible counts entries the doorbell has announced to the controller.
	visible int

	// class is the WRR priority class (ignored under round-robin).
	class QueueClass

	// lock serializes tail updates from multiple cores; lockWait sums its
	// waits, the submission-side contention that feeds NSQ merits (§5.3).
	lock     sim.FIFORes
	lockWait sim.Duration

	// Submitted counts enqueued requests (nq.submitted_rqs).
	Submitted uint64
	// Fetched counts controller fetches.
	Fetched uint64
	// OverflowRejects counts enqueue attempts that found the queue full.
	OverflowRejects uint64
}

// Len reports queued (not yet fetched) entries.
func (q *NSQ) Len() int { return len(q.entries) - q.head }

// VisibleLen reports doorbell-announced entries awaiting fetch.
func (q *NSQ) VisibleLen() int { return q.visible }

// Full reports whether the queue has no free entries.
func (q *NSQ) Full() bool { return q.Len() >= q.dev.cfg.QueueDepth }

// NCQ returns the paired completion queue.
func (q *NSQ) NCQ() *NCQ { return q.ncq }

// InLockTime reports cumulative lock wait (nq.in_lock_µs).
func (q *NSQ) InLockTime() sim.Duration { return q.lockWait }

// NCQ is a completion queue.
type NCQ struct {
	ID      int
	dev     *Device
	irqCore int
	policy  CompletionPolicy

	pendingCQE []*command
	// spare recycles drained CQE batch slices; several batches can be in
	// flight at once (a new batch may post while an earlier ISR is still
	// queued on its core), hence a small pool rather than a single buffer.
	spare    [][]*command
	irqArmed bool
	timer    *sim.Timer
	// isrQ carries detached CQE batches from delivery to the reap running
	// on the vector's core. Core IRQ work is FIFO and each delivery submits
	// exactly one reap, so batches are consumed in delivery order — which
	// lets the reap continuations (the device's isrWorkFn for interrupts,
	// pollReapWorkFn for polling) be shared across every NCQ instead of
	// closed over each batch or bound per queue.
	isrQ [][]*command

	// polling-mode state (see polling.go)
	polled    bool
	pollEvery sim.Duration
	pollArmed bool

	// InFlight counts commands fetched toward this NCQ but not yet
	// ISR-processed (nq.in_flight_rqs).
	InFlight int
	// Completed counts CQEs processed (nq.complete_rqs).
	Completed uint64
	// IRQs counts interrupts fired (nq.irqs).
	IRQs uint64
}

// IRQCore reports the core this NCQ's interrupt vector targets.
func (c *NCQ) IRQCore() int { return c.irqCore }

// Policy returns the current completion policy.
func (c *NCQ) Policy() CompletionPolicy { return c.policy }

// SetPolicy replaces the completion policy (nqreg's completion-path
// dispatching).
func (c *NCQ) SetPolicy(p CompletionPolicy) { c.policy = p }

// SetIRQCore retargets the interrupt vector.
func (c *NCQ) SetIRQCore(core int) {
	if core < 0 || core >= c.dev.pool.N() {
		panic(fmt.Sprintf("nvme: IRQ core %d out of range", core))
	}
	c.irqCore = core
}

// Depth reports the queue depth.
func (c *NCQ) Depth() int { return c.dev.cfg.QueueDepth }

// Namespace is an NVMe namespace: a logically isolated slice of the flash
// address space that nevertheless shares the controller's NQ set (§2.1).
type Namespace struct {
	ID   int
	Base int64 // absolute byte offset into the flash address space
	Size int64
}

// Device is the simulated NVMe SSD.
type Device struct {
	cfg  Config
	eng  *sim.Engine
	pool *cpus.Pool

	nsqs       []*NSQ
	ncqs       []*NCQ
	namespaces []Namespace
	media      *flash.Device
	ftl        FTL

	// controller state
	rr        int
	inflight  int
	fetchBusy bool
	fetchQ    *NSQ   // queue whose head the in-flight fetch targets
	fetchDone func() // fetch-completion continuation (fetchBusy serializes it)
	wrrClass  int
	wrrCredit int
	classRR   [numClasses]int
	// ready holds one bit per NSQ with visible entries, and classReady the
	// same bits split by WRR class, so arbitration finds the next queue with
	// a trailing-zeros search instead of probing every NSQ. ringNow and
	// finishFetch keep them in step with NSQ.visible, SetClass moves a bit
	// between classes, and a controller reset clears them.
	ready      []uint64
	classReady [numClasses][]uint64
	errRNG     *sim.Rand

	// freeCmds recycles command objects so the steady-state submission path
	// does not allocate; cmdSlab is the current carve chunk the free-list
	// refills from, so even the ramp-up phase allocates once per
	// cmdChunkSize commands rather than once per command.
	freeCmds []*command
	cmdSlab  []command
	// flashDoneFn/abortDoneFn are the device-wide command continuations,
	// dispatched through the engine's argument-carrying events (AtArg) with
	// the target command as the argument.
	flashDoneFn func(any)
	abortDoneFn func(any)
	// Per-queue continuations, likewise device-wide with the queue as the
	// argument: binding method values per NSQ/NCQ costs one closure each at
	// construction, which dominates fresh-cell allocation at 64+ queues.
	ringNSQFn      func(any)              // NSQ doorbell instant
	irqDeliverFn   func(any)              // NCQ IRQ delivery (irqArmed serializes it)
	coalesceFireFn func(any)              // NCQ coalescing-timer expiry
	pollFireFn     func(any)              // NCQ poll tick (pollArmed serializes it)
	isrWorkFn      func(any) sim.Duration // NCQ interrupt reap, runs on the vector core
	pollReapWorkFn func(any) sim.Duration // NCQ polled reap, runs on the vector core

	// host-recovery state (see recovery.go)
	inj          *fault.Injector
	cancelFn     func(*block.Request) // host requeue hook (SetCancelHandler)
	expq         []expiryRef          // FIFO of armed per-command expiries
	expHead      int
	expiryArmed  bool
	expiryFn     func() // expiry-scan continuation (expiryArmed serializes it)
	resumeFn     func() // hiccup-resume continuation (hiccupArmed serializes it)
	resetFn      func() // reset-completion continuation (resetting serializes it)
	hiccupArmed  bool
	resetting    bool
	fetchAborted bool // a reset voided the in-flight fetch

	// observability (obs.go): all nil unless AttachObs wired an observer.
	tracer *obs.Tracer
	flight *obs.Flight
	frHost *obs.Ring // submission-side flight events
	frDev  *obs.Ring // controller/device flight events
	frRec  *obs.Ring // recovery-ladder flight events
	ftlFG  fgGCCounter

	// MediaErrors counts injected failures; FailedCommands counts commands
	// completed with an error after exhausting retries.
	MediaErrors    uint64
	FailedCommands uint64

	// Host-recovery counters (recovery.go): Timeouts counts commands whose
	// expiry fired; Aborts counts Abort admin commands that found their
	// target still outstanding; AbortRaces counts aborts that lost the race
	// with a normal completion; AbortFails counts aborts whose target was
	// genuinely executing (escalating to reset); Resets counts controller
	// resets; CancelledCmds counts commands cancelled back to the host;
	// ResetRejects counts enqueues refused while re-initializing.
	Timeouts      uint64
	Aborts        uint64
	AbortRaces    uint64
	AbortFails    uint64
	Resets        uint64
	CancelledCmds uint64
	ResetRejects  uint64
}

// New builds a device on engine eng delivering interrupts into pool.
// NCQ i's IRQ vector lands on core i mod pool.N(); NSQ i pairs with NCQ
// i mod NumNCQ.
func New(eng *sim.Engine, pool *cpus.Pool, cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.MediaErrorRate > 0 && cfg.MediaRetries == 0 {
		cfg.MediaRetries = 3
	}
	if cfg.CmdTimeout > 0 {
		if cfg.AbortCost == 0 {
			cfg.AbortCost = 50 * sim.Microsecond
		}
		if cfg.ResetDelay == 0 {
			cfg.ResetDelay = 2 * sim.Millisecond
		}
	}
	d := &Device{cfg: cfg, eng: eng, pool: pool, media: flash.New(cfg.Flash),
		errRNG: sim.NewRand(cfg.ErrorSeed + 0x5eed)}
	words := (cfg.NumNSQ + 63) / 64
	masks := make([]uint64, (numClasses+1)*words)
	d.ready = masks[:words:words]
	for c := range d.classReady {
		d.classReady[c] = masks[(c+1)*words : (c+2)*words : (c+2)*words]
	}
	d.wrrCredit = cfg.WRR.High
	d.fetchDone = d.finishFetch
	d.flashDoneFn = func(a any) { a.(*command).flashDone() }
	d.abortDoneFn = func(a any) { a.(*command).abortDone() }
	d.ringNSQFn = func(a any) { a.(*NSQ).ringNow() }
	d.irqDeliverFn = func(a any) { a.(*NCQ).deliver() }
	d.coalesceFireFn = func(a any) { a.(*NCQ).coalesceFire() }
	d.pollFireFn = func(a any) { a.(*NCQ).pollFire() }
	d.isrWorkFn = func(a any) sim.Duration { return a.(*NCQ).isrRun() }
	d.pollReapWorkFn = func(a any) sim.Duration { return a.(*NCQ).pollReapRun() }
	d.expiryFn = d.checkExpiry
	d.resumeFn = d.hiccupResume
	d.resetFn = d.finishReset
	// The queues live in two backing arrays, with pointers into them handed
	// out: one allocation per kind instead of one per queue, which matters
	// when every simulated cell constructs a fresh 64+64-queue device. The
	// arrays are never appended to, so the pointers stay valid.
	ncqArr := make([]NCQ, cfg.NumNCQ)
	d.ncqs = make([]*NCQ, cfg.NumNCQ)
	for i := range ncqArr {
		cq := &ncqArr[i]
		cq.ID, cq.dev, cq.irqCore = i, d, i%pool.N()
		d.ncqs[i] = cq
	}
	nsqArr := make([]NSQ, cfg.NumNSQ)
	d.nsqs = make([]*NSQ, cfg.NumNSQ)
	// Seed each entries slice with a small carve of one shared backing
	// array instead of committing QueueDepth-sized arrays per NSQ (at 64
	// NSQs × 1024 depth that would be half a megabyte per cell). Most
	// NSQs never hold more than a few commands; the busy ones grow by
	// append during the untimed ramp-up. The seed stays small because a
	// cell is built on a cold heap, where construction bytes cost more
	// than the growth steps they would skip (DESIGN.md, "Slab and
	// backing-array lifecycle"). The three-index carve caps each slice so
	// a queue growing past its share reallocates privately instead of
	// clobbering its neighbor.
	const entrySeed = 16
	entryBacking := make([]*command, cfg.NumNSQ*entrySeed)
	for i := range nsqArr {
		q := &nsqArr[i]
		q.ID, q.dev, q.ncq, q.class = i, d, d.ncqs[i%cfg.NumNCQ], ClassMedium
		q.entries = entryBacking[i*entrySeed : i*entrySeed : (i+1)*entrySeed]
		d.nsqs[i] = q
	}
	d.namespaces = []Namespace{{ID: 0, Base: 0, Size: 1 << 41}} // single 2TB ns by default
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Media exposes the flash backend (read-only use intended).
func (d *Device) Media() *flash.Device { return d.media }

// FTL is the optional flash translation layer (internal/ftl) between the
// controller and the media. When attached, all data commands flow through
// its mapping and Deallocate commands reach its Trim; when absent the
// controller drives the media's static placement directly and Deallocate
// is a no-op.
type FTL interface {
	// SubmitIO services the byte range through the mapping table and
	// returns the completion instant of the last page.
	SubmitIO(now sim.Time, offset, size int64, op flash.Op) sim.Time
	// Trim deallocates the byte range, returning the number of pages
	// invalidated.
	Trim(offset, size int64) int
}

// AttachFTL interposes f on the media path. Pass nil to detach.
func (d *Device) AttachFTL(f FTL) {
	d.ftl = f
	d.ftlFG, _ = f.(fgGCCounter)
}

// FTL returns the attached translation layer, or nil.
func (d *Device) FTL() FTL { return d.ftl }

// NumNSQ reports the NSQ count.
func (d *Device) NumNSQ() int { return len(d.nsqs) }

// NumNCQ reports the NCQ count.
func (d *Device) NumNCQ() int { return len(d.ncqs) }

// NSQ returns submission queue i.
func (d *Device) NSQ(i int) *NSQ { return d.nsqs[i] }

// NCQOf returns completion queue i.
func (d *Device) NCQOf(i int) *NCQ { return d.ncqs[i] }

// CreateNamespaces divides the flash address space into n equal namespaces,
// replacing any existing layout (§2.1: up to 128 namespaces per SSD).
func (d *Device) CreateNamespaces(n int) {
	if n <= 0 {
		panic("nvme: need at least one namespace")
	}
	total := int64(1) << 41
	per := total / int64(n)
	d.namespaces = d.namespaces[:0]
	for i := 0; i < n; i++ {
		d.namespaces = append(d.namespaces, Namespace{ID: i, Base: int64(i) * per, Size: per})
	}
}

// NumNamespaces reports the namespace count.
func (d *Device) NumNamespaces() int { return len(d.namespaces) }

// Namespace returns namespace i.
func (d *Device) Namespace(i int) Namespace { return d.namespaces[i] }

// resolve maps a namespace-relative offset to the flash address space.
func (d *Device) resolve(ns int, offset int64) int64 {
	if ns < 0 || ns >= len(d.namespaces) {
		panic(fmt.Sprintf("nvme: namespace %d out of range [0,%d)", ns, len(d.namespaces))) //lint:ddvet:allow hotpathalloc cold panic path
	}
	n := d.namespaces[ns]
	return n.Base + offset%n.Size
}

// Enqueue places rq into NSQ nsqID at instant now, optionally ringing the
// doorbell. It returns ok=false when the queue is full (caller requeues),
// otherwise the CPU overhead (lock wait + hold) the submitting core must
// absorb. rq.LockWait and rq.NSQ are filled in.
//
//ddvet:hotpath
func (d *Device) Enqueue(now sim.Time, nsqID int, rq *block.Request, ring bool) (ok bool, overhead sim.Duration) {
	q := d.nsqs[nsqID]
	if d.resetting {
		// The controller is re-initializing after a reset: the doorbell is
		// dead. The host treats this like a full queue and backs off.
		d.ResetRejects++
		d.frHost.Record(now, frRejectReset, rq.ID, int64(nsqID))
		return false, 0
	}
	if q.Full() {
		q.OverflowRejects++
		d.frHost.Record(now, frRejectFull, rq.ID, int64(nsqID))
		return false, 0
	}
	grant, wait := q.lock.Acquire(now, d.cfg.SQLockHold)
	q.lockWait += wait
	enqAt := grant.Add(d.cfg.SQLockHold)
	rq.LockWait = wait
	rq.NSQ = nsqID
	if sp := rq.Span; sp != nil {
		sp.Submit = enqAt
		sp.NSQ = nsqID
		sp.NSQDepth = q.Len()
		sp.Prio = int(rq.Prio)
	}
	d.frHost.Record(enqAt, frEnqueue, rq.ID, int64(nsqID))
	pages := d.media.Pages(d.resolve(rq.Namespace, rq.Offset), rq.Size)
	if pages == 0 {
		pages = 1 // zero-length requests still occupy an entry
	}
	if rq.Flags.Discard() {
		pages = 1 // Deallocate carries a range list, not data pages
	}
	cmd := d.allocCmd(rq, q, pages)
	q.entries = append(q.entries, cmd)
	q.Submitted++
	if ring {
		d.eng.AtArg(enqAt, d.ringNSQFn, q)
	}
	return true, wait + d.cfg.SQLockHold
}

// cmdChunkSize is the slab carve granularity: one allocation covers this
// many command lifetimes during ramp-up, after which the free-list
// recycles forever.
const cmdChunkSize = 64

// allocCmd takes a command from the free-list, refilling it from the slab
// when empty.
//
//ddvet:hotpath
func (d *Device) allocCmd(rq *block.Request, q *NSQ, pages int) *command {
	if n := len(d.freeCmds); n > 0 {
		c := d.freeCmds[n-1]
		d.freeCmds = d.freeCmds[:n-1]
		c.rq, c.nsq, c.pages, c.retries = rq, q, pages, 0
		c.seq++ // invalidates any stale expiry refs to the previous life
		c.state = cmdQueued
		c.lost = false
		return c
	}
	if len(d.cmdSlab) == 0 {
		d.cmdSlab = make([]command, cmdChunkSize)
	}
	c := &d.cmdSlab[0]
	d.cmdSlab = d.cmdSlab[1:]
	c.dev, c.rq, c.nsq, c.pages = d, rq, q, pages
	return c
}

// releaseCmd returns a completed command to the free-list. Callers must
// release before invoking rq.Complete: completion callbacks may submit new
// requests synchronously, and those are allowed to reuse this object.
//
// A command with a doneFn or abortFn event still scheduled cannot be
// recycled yet — reusing it would let the stale event fire against the new
// occupant. It is parked instead, and the last such event unparks it.
func (d *Device) releaseCmd(c *command) {
	c.rq, c.nsq = nil, nil
	if c.pendingDone || c.pendingAbort {
		c.parked = true
		return
	}
	d.freeCmds = append(d.freeCmds, c)
}

// maybeUnpark completes the recycling of a parked command once its last
// outstanding event has fired.
func (d *Device) maybeUnpark(c *command) {
	if c.parked && !c.pendingDone && !c.pendingAbort {
		c.parked = false
		d.freeCmds = append(d.freeCmds, c)
	}
}

// ringNow is the doorbell instant: publish the queue's occupancy to the
// controller and let it fetch. Reading Len at fire time makes the function
// idempotent, so one bound closure serves every scheduled ring.
//
//ddvet:hotpath
func (q *NSQ) ringNow() {
	q.visible = q.Len()
	q.dev.setReady(q, q.visible > 0)
	q.dev.maybeFetch()
}

// Ring announces all enqueued entries of the NSQ to the controller — the
// batched-doorbell path nqreg uses for low-priority NSQs.
func (d *Device) Ring(nsqID int) {
	d.nsqs[nsqID].ringNow()
}

// maybeFetch drives the controller's fetch engine: one command at a time,
// round-robin over NSQs with doorbell-announced entries, bounded by the
// in-flight window.
//
//ddvet:hotpath
func (d *Device) maybeFetch() {
	if d.fetchBusy || d.resetting || d.inflight >= d.cfg.MaxInflight {
		return
	}
	if d.inj != nil {
		if until, paused := d.inj.FetchPausedUntil(d.eng.Now()); paused {
			// Controller hiccup: the fetch engine sits out the window.
			d.deferFetch(until)
			return
		}
	}
	var q *NSQ
	if d.cfg.Arbitration == ArbWeightedRoundRobin {
		q = d.nextWRR()
	} else {
		q = d.nextRR()
	}
	if q == nil {
		return
	}
	d.fetchBusy = true
	// Peek the head entry to price the fetch; pop on completion of the
	// fetch so queue occupancy reflects reality. fetchBusy serializes
	// fetches, so the target queue rides in fetchQ and the continuation is
	// the one bound at construction.
	cmd := q.entries[q.head]
	cost := d.cfg.FetchCost + sim.Duration(cmd.pages)*d.cfg.FetchPerPage
	d.fetchQ = q
	d.eng.After(cost, d.fetchDone)
}

// finishFetch pops the fetched command off the queue the in-flight fetch
// targeted and hands it to the flash backend. Entries are only appended
// behind head while a fetch is outstanding, so the head entry here is the
// one maybeFetch priced.
//
//ddvet:hotpath
func (d *Device) finishFetch() {
	if d.fetchAborted {
		// A controller reset voided this fetch; the target queue was torn
		// down and its entries cancelled back to the host.
		d.fetchAborted = false
		d.fetchBusy = false
		d.fetchQ = nil
		return
	}
	q := d.fetchQ
	d.fetchQ = nil
	// The fetched entry is left stale, not nil'd: commands are slab-pooled
	// device-lifetime objects, so retention through a consumed queue entry
	// costs nothing, while a per-fetch pointer clear is write-barrier
	// traffic on the hot path. Compaction overwrites stale entries.
	cmd := q.entries[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.entries) {
		q.entries = append(q.entries[:0], q.entries[q.head:]...)
		q.head = 0
	}
	if q.visible--; q.visible == 0 {
		d.setReady(q, false)
	}
	q.Fetched++
	d.inflight++
	q.ncq.InFlight++
	cmd.state = cmdInflight
	now := d.eng.Now()
	if sp := cmd.rq.Span; sp != nil {
		sp.Fetch = now
		// Re-derive the priced fetch window (maybeFetch priced this same
		// head entry) so the profiler can split Submit→Fetch into pure
		// queue wait and fetch service.
		sp.FetchCost = d.cfg.FetchCost + sim.Duration(cmd.pages)*d.cfg.FetchPerPage
	}
	d.frDev.Record(now, frFetch, cmd.rq.ID, int64(q.ID))
	d.armExpiry(cmd)
	d.dispatchToFlash(cmd)
	d.fetchBusy = false
	d.maybeFetch()
}

// nextRR returns the next NSQ with visible entries in round-robin order
// from the last one served (the NVMe default arbitration the paper
// assumes): the ready bitmap's first set bit at or after rr+1, wrapping, so
// the last queue served comes last.
//
//ddvet:hotpath
func (d *Device) nextRR() *NSQ {
	i := nextReady(d.ready, d.rr+1)
	if i < 0 {
		return nil
	}
	d.rr = i
	return d.nsqs[i]
}

// dispatchToFlash decomposes the command into page operations and schedules
// its completion when the last page finishes.
//
//ddvet:hotpath
func (d *Device) dispatchToFlash(cmd *command) {
	rq := cmd.rq
	op := flash.Read
	if rq.Op == block.OpWrite {
		op = flash.Program
	}
	abs := d.resolve(rq.Namespace, rq.Offset)
	size := rq.Size
	if size <= 0 {
		size = 1
	}
	var lateBy sim.Duration
	if d.inj != nil && !rq.Flags.Discard() {
		verdict, delay := d.inj.CommandFate(d.eng.Now(), d.media.ChipIndexOf(abs))
		switch verdict {
		case fault.VerdictLost:
			// The chip is browned out or the CQE is dropped: the command is
			// abandoned before media service and no completion will ever
			// arrive. It keeps its in-flight slot until host expiry recovers
			// it (recovery.go) — exactly the hang the timeout ladder exists
			// for.
			cmd.lost = true
			d.frDev.Record(d.eng.Now(), frLost, rq.ID, int64(d.media.ChipIndexOf(abs)))
			return
		case fault.VerdictLate:
			lateBy = delay
		}
	}
	var fg0 uint64
	var fgStall0 sim.Duration
	sp := rq.Span
	if sp != nil {
		sp.Chip = d.media.ChipIndexOf(abs)
		if d.ftlFG != nil {
			fg0 = d.ftlFG.ForegroundGCCount()
			fgStall0 = d.ftlFG.ForegroundGCStall()
		}
	}
	var done sim.Time
	switch {
	case rq.Flags.Discard():
		// Deallocate updates the mapping table only — no media work. Without
		// an FTL there is no mapping to trim; the command still completes.
		if d.ftl != nil {
			d.ftl.Trim(abs, size)
		}
		done = d.eng.Now()
	case d.ftl != nil:
		done = d.ftl.SubmitIO(d.eng.Now(), abs, size, op)
	default:
		done = d.media.SubmitIO(d.eng.Now(), abs, size, op)
	}
	if sp != nil {
		sp.Service = done
		if d.ftlFG != nil {
			sp.FGGCs += d.ftlFG.ForegroundGCCount() - fg0
			sp.GCWait += d.ftlFG.ForegroundGCStall() - fgStall0
		}
	}
	cmd.pendingDone = true
	d.eng.AtArg(done.Add(d.cfg.CQEPostCost+lateBy), d.flashDoneFn, cmd)
}

// flashDone is a command's completion continuation: inject media errors
// (retrying inside the controller), then post the CQE and free the
// in-flight window slot.
//
//ddvet:hotpath
func (c *command) flashDone() {
	d := c.dev
	c.pendingDone = false
	if c.state == cmdCancelled {
		// A controller reset cancelled this command while its media op was
		// in flight; the host already got it back, so the late completion
		// only finishes recycling the object.
		d.releaseCmd(c)
		return
	}
	failed := d.cfg.MediaErrorRate > 0 && d.errRNG.Bool(d.cfg.MediaErrorRate)
	if !failed && d.inj != nil && c.rq.Op == block.OpRead {
		// Raw-bit-error ramp: extra read failures from the fault stream.
		failed = d.inj.ReadErrorAt(d.eng.Now())
	}
	if failed {
		d.MediaErrors++
		if c.retries < d.cfg.MediaRetries {
			// Controller-internal retry: re-execute the media ops.
			c.retries++
			c.rq.Retries = c.retries
			d.dispatchToFlash(c)
			return
		}
		c.rq.Err = ErrMedia
		d.FailedCommands++
	}
	c.state = cmdDone // completion wins any race with a pending abort
	d.inflight--
	d.postCQE(c)
	d.maybeFetch()
}

// ErrMedia marks a command that failed after exhausting device retries.
var ErrMedia = errors.New("nvme: unrecoverable media error")

// postCQE places the completed command on its NCQ and arms the interrupt
// per the NCQ's completion policy.
//
//ddvet:hotpath
func (d *Device) postCQE(cmd *command) {
	cq := cmd.nsq.ncq
	now := d.eng.Now()
	cmd.rq.CQEPostTime = now
	if sp := cmd.rq.Span; sp != nil {
		sp.CQEPost = now
	}
	d.frDev.Record(now, frCQE, cmd.rq.ID, int64(cq.ID))
	if cq.pendingCQE == nil {
		if n := len(cq.spare); n > 0 {
			cq.pendingCQE = cq.spare[n-1]
			cq.spare = cq.spare[:n-1]
		}
	}
	cq.pendingCQE = append(cq.pendingCQE, cmd)
	if cq.polled {
		d.armPoll(cq)
		return
	}
	p := cq.policy
	switch {
	case p.PerRequest:
		d.fireIRQ(cq)
	case p.CoalesceMax > 0 && len(cq.pendingCQE) >= p.CoalesceMax:
		if cq.timer != nil {
			cq.timer.Stop()
			cq.timer = nil
		}
		d.fireIRQ(cq)
	case p.CoalesceMax > 0 || p.CoalesceDelay > 0:
		if !cq.irqArmed && cq.timer == nil {
			delay := p.CoalesceDelay
			if delay <= 0 {
				delay = d.cfg.IRQLatency
			}
			cq.timer = d.eng.AfterTimerArg(delay, d.coalesceFireFn, cq)
		}
	default:
		// Vanilla: interrupt as soon as a CQE posts, unless one is already
		// on its way (its ISR will drain everything pending — the default
		// batched completion of §2.1).
		d.fireIRQ(cq)
	}
}

// coalesceFire is the coalescing-timer continuation.
//
//ddvet:hotpath
func (cq *NCQ) coalesceFire() {
	cq.timer = nil
	cq.dev.fireIRQ(cq)
}

// fireIRQ delivers the NCQ's interrupt to its core and runs the ISR, which
// drains all pending CQEs and completes their requests. irqArmed serializes
// deliveries, so the delivery continuation is the one bound at construction.
//
//ddvet:hotpath
func (d *Device) fireIRQ(cq *NCQ) {
	if cq.irqArmed {
		return
	}
	cq.irqArmed = true
	d.eng.AfterArg(d.cfg.IRQLatency, d.irqDeliverFn, cq)
}

// deliver is the interrupt arrival: detach the pending batch, price the ISR,
// and queue it as interrupt work on the vector's core. The batch rides the
// NCQ's isrQ FIFO to the pre-bound reap continuation, so the path allocates
// nothing at steady state.
//
//ddvet:hotpath
func (cq *NCQ) deliver() {
	d := cq.dev
	cq.irqArmed = false
	batch := cq.pendingCQE
	cq.pendingCQE = nil
	if len(batch) == 0 {
		if batch != nil {
			cq.spare = append(cq.spare, batch[:0])
		}
		return
	}
	cq.IRQs++
	cost := d.cfg.ISREntry
	arrive := d.eng.Now()
	for _, cmd := range batch {
		cost += d.cfg.ISRPerCQE
		if cmd.rq.Tenant != nil && cmd.rq.Tenant.Core != cq.irqCore {
			cost += d.cfg.CrossCoreCQE
		}
		if sp := cmd.rq.Span; sp != nil {
			sp.Deliver = arrive
			sp.DCore = cq.irqCore
		}
	}
	cq.isrQ = append(cq.isrQ, batch)
	d.pool.Core(cq.irqCore).SubmitIRQ(cpus.Work{Cost: cost, ArgFn: d.isrWorkFn, Arg: cq})
}

// isrPop dequeues the oldest detached batch. The FIFO is almost always a
// single entry; the shift-down keeps the zero-length case allocation-free.
func (cq *NCQ) isrPop() []*command {
	batch := cq.isrQ[0]
	n := len(cq.isrQ) - 1
	copy(cq.isrQ, cq.isrQ[1:])
	cq.isrQ[n] = nil
	cq.isrQ = cq.isrQ[:n]
	return batch
}

// isrRun is the ISR body: complete every command of the oldest delivered
// batch and recycle the batch slice.
//
//ddvet:hotpath
func (cq *NCQ) isrRun() sim.Duration {
	d := cq.dev
	batch := cq.isrPop()
	now := d.eng.Now()
	for _, cmd := range batch {
		rq := cmd.rq
		cq.InFlight--
		cq.Completed++
		if rq.Tenant != nil && rq.Tenant.Core != cq.irqCore {
			rq.CrossCore = true
		}
		d.releaseCmd(cmd)
		rq.Complete(now)
	}
	// Stale command pointers stay in the recycled batch's capacity on
	// purpose: commands are slab-pooled, so clearing them per CQE would be
	// pure write-barrier cost.
	cq.spare = append(cq.spare, batch[:0])
	return 0
}

// Inflight reports commands fetched but not completed.
func (d *Device) Inflight() int { return d.inflight }
