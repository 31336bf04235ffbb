package sim

// The event core is the hottest code in the simulator: every modeled
// action — a fetch, an ISR, a flash page program — is one scheduled
// callback. It is built for zero steady-state allocation:
//
//   - The pending queue is a typed 4-ary min-heap of inline event values
//     (no per-event pointer, no interface boxing). A 4-ary layout halves
//     the tree depth of a binary heap and keeps the hot sift loops on one
//     or two cache lines for the queue depths the machine model produces.
//   - The callback and its cancellation state live in a slot recycled
//     through a free-list, so At/After reuse memory once the engine
//     reaches its high-water mark of concurrently pending events, and
//     Timer handles come from a recycle list of their own.
//   - A hierarchical timing wheel (wheel.go) fronts the heap for
//     long-horizon events, so command timeouts, coalescing timers, and
//     erase completions neither pay O(log n) insertion nor inflate the
//     heap every short-horizon event sifts through.
//   - A flushed level-0 wheel slot stays out of the heap: it is sorted in
//     place and consumed as the engine's run, an array drained from the
//     front (a slot too disordered to sort cheaply goes to the heap
//     instead). A retry storm parks dozens of timers in each tick, and
//     draining them as one run costs a compare per event where the heap
//     paid a sift.
//
// Events at the same instant fire in scheduling order (seq breaks ties),
// which keeps runs deterministic. The wheel only stages events; the run
// head and the heap top together decide firing order by (at, seq) alone,
// so residency (heap, wheel or run) never changes order. The run is
// always empty when the next slot flushes (wheel.go states why), so one
// run suffices.

// event is one pending entry in the heap, the wheel or the run. It
// carries only the ordering key and the index of the slot holding the
// callback, so heap swaps move 24 bytes and never touch the garbage
// collector.
type event struct {
	at  Time
	seq uint64
	id  int32
}

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot holds a pending event's callback. Exactly one of fn and argFn is
// set: argFn carries a caller-supplied argument so shared continuations
// (one function value per device, not per object) can dispatch to pooled
// objects without a per-object closure. timer is non-nil for cancellable
// events scheduled through AfterTimer.
type slot struct {
	fn    func()
	argFn func(any)
	arg   any
	timer *Timer
	// live guards against double-free without inspecting the pointer
	// fields: a freed slot keeps them stale on purpose (see freeSlot).
	live bool
}

// Engine is the discrete-event simulation core: a virtual clock plus an
// ordered queue of pending events. It is not safe for concurrent use; the
// entire simulated machine runs on one engine, single-threaded. Independent
// engines (one per experiment cell) may run on different goroutines.
type Engine struct {
	now    Time
	events []event
	// run is the sorted level-0 slot being drained (wheel.go, flush);
	// run[rh:] is still pending. Every run event lies in the wheel
	// clock's tick, so the run is empty again before the next slot
	// flushes, and flush hands its drained buffer back to the wheel.
	run     []event
	rh      int
	slots   []slot
	free    []int32
	seq     uint64
	stopped bool
	// wh is the hierarchical timing wheel fronting the heap (wheel.go).
	wh wheel
	// timerFree recycles Timer handles: a handle returns here when its
	// event is consumed and is reused by a later AfterTimer, making
	// cancellable scheduling allocation-free at steady state.
	timerFree []*Timer

	// Executed counts events whose callback has fired (cancelled timers are
	// consumed without counting); useful for budget guards in tests and
	// long experiments.
	Executed uint64
	// Recycled counts slots returned to the free-list — the free-list
	// accounting the tests pin down (each scheduled event is returned
	// exactly once, whether it fired or was cancelled).
	Recycled uint64
}

// New returns an engine with the clock at zero and no pending events. The
// heap, slot table, and free-list start with a small seed capacity and
// grow by append to the cell's high-water mark. The seed is small on
// purpose: a cell is built on a cold heap (after a forced collection, or
// after a run that allocated nothing), where every construction byte is a
// fresh page, so a larger seed costs more in construction than the few
// growth steps it would skip during the untimed ramp-up (DESIGN.md, "Slab
// and backing-array lifecycle").
func New() *Engine {
	return &Engine{
		events: make([]event, 0, 64),
		slots:  make([]slot, 0, 128),
		free:   make([]int32, 0, 128),
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of queued events (cancelled-but-unconsumed
// timers included, as they still occupy queue entries), whether resident
// in the heap, the timing wheel or the run.
func (e *Engine) Pending() int { return len(e.events) + e.wh.count + len(e.run) - e.rh }

// allocSlot takes a slot from the free-list, growing the table only when
// every slot is live (the high-water mark).
func (e *Engine) allocSlot(fn func(), tm *Timer) int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[id] = slot{fn: fn, timer: tm, live: true}
		return id
	}
	e.slots = append(e.slots, slot{fn: fn, timer: tm, live: true})
	return int32(len(e.slots) - 1)
}

// freeSlot returns a consumed event's slot to the free-list. Freeing twice
// would hand the same slot to two pending events and corrupt the queue, so
// it panics loudly instead — tracked by the live flag rather than a nil
// callback, because the pointer fields are deliberately left stale: every
// referent (callback, argument, timer handle) is pooled engine-lifetime
// state that the next allocSlot overwrites anyway, and clearing four
// pointer words here would double the write-barrier traffic on the
// simulator's single busiest path.
func (e *Engine) freeSlot(id int32) {
	s := &e.slots[id]
	if !s.live {
		panic("sim: event slot freed twice")
	}
	s.live = false
	e.free = append(e.free, id)
	e.Recycled++
}

// At schedules fn to run at instant t. Scheduling in the past panics: it
// always indicates a modeling bug, and silently reordering time would make
// every downstream measurement wrong.
//
//ddvet:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev := event{at: t, seq: e.seq, id: e.allocSlot(fn, nil)}
	// Open-coded schedule fast path: same-tick events — the bulk of a
	// device cell's traffic — go straight to the heap without another
	// call frame.
	if tick := int64(t) >> wheelTickShift; tick == e.wh.cur {
		e.push(ev)
	} else {
		e.wheelInsert(ev, tick)
	}
}

// After schedules fn to run d from now. Negative d panics.
//
//ddvet:hotpath
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now.Add(d), fn)
}

// AtArg schedules fn(arg) to run at instant t. A caller that would
// otherwise bind a fresh closure per scheduled object (one continuation
// per pooled command, say) passes one long-lived fn and the object as arg
// instead: the argument rides in the event slot, and a pointer stored in
// an interface does not allocate, so the steady-state cost is zero.
//
//ddvet:hotpath
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev := event{at: t, seq: e.seq, id: e.allocArgSlot(fn, arg)}
	if tick := int64(t) >> wheelTickShift; tick == e.wh.cur {
		e.push(ev)
	} else {
		e.wheelInsert(ev, tick)
	}
}

// AfterArg schedules fn(arg) to run d from now. Negative d panics.
//
//ddvet:hotpath
func (e *Engine) AfterArg(d Duration, fn func(any), arg any) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.AtArg(e.now.Add(d), fn, arg)
}

// allocArgSlot is allocSlot for argument-carrying events.
func (e *Engine) allocArgSlot(fn func(any), arg any) int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[id] = slot{argFn: fn, arg: arg, live: true}
		return id
	}
	e.slots = append(e.slots, slot{argFn: fn, arg: arg, live: true})
	return int32(len(e.slots) - 1)
}

// push inserts ev into the 4-ary heap.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	// Sift the displaced tail down: at each level pick the smallest of up
	// to four children.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for k := c + 1; k < end; k++ {
			if h[k].before(h[min]) {
				min = k
			}
		}
		if !h[min].before(last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
	return top
}

// Step consumes the earliest pending event, advancing the clock to its
// instant, and reports whether the queue made progress. An event whose
// timer was cancelled is consumed (its slot returns to the free-list)
// without firing the callback or counting toward Executed.
//
//ddvet:hotpath
func (e *Engine) Step() bool {
	if e.stopped || !e.prepare() {
		return false
	}
	e.fire(e.runFirst())
	return true
}

// runFirst reports whether the earliest pending event is the run head
// rather than the heap top. prepare must have returned true.
func (e *Engine) runFirst() bool {
	return e.rh < len(e.run) && (len(e.events) == 0 || e.run[e.rh].before(e.events[0]))
}

// headAt is the instant of the earliest pending event, given runFirst.
func (e *Engine) headAt(inRun bool) Time {
	if inRun {
		return e.run[e.rh].at
	}
	return e.events[0].at
}

// fire removes the earliest pending event, from the run or the heap as
// runFirst decided, and dispatches it.
//
//ddvet:hotpath
func (e *Engine) fire(inRun bool) {
	var ev event
	if inRun {
		ev = e.run[e.rh]
		e.rh++
	} else {
		ev = e.pop()
	}
	e.now = ev.at
	s := &e.slots[ev.id]
	fn, argFn, arg, tm := s.fn, s.argFn, s.arg, s.timer
	e.freeSlot(ev.id)
	if tm != nil {
		if tm.stopped {
			e.timerFree = append(e.timerFree, tm)
			return
		}
		tm.fired = true
	}
	e.Executed++
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
	if tm != nil {
		// Recycled only after the callback returns, so code running
		// inside it (which may schedule new timers) never observes its
		// own still-live handle being handed out again.
		e.timerFree = append(e.timerFree, tm)
	}
}

// RunUntil fires every event scheduled at or before t, then sets the clock
// to t. Events scheduled during the run are fired too if they fall within
// the horizon.
//
//ddvet:hotpath
func (e *Engine) RunUntil(t Time) {
	for !e.stopped && e.prepare() {
		inRun := e.runFirst()
		if e.headAt(inRun) > t {
			break
		}
		e.fire(inRun)
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Run fires events until the queue is empty or Stop is called.
//
//ddvet:hotpath
func (e *Engine) Run() {
	for !e.stopped && e.prepare() {
		e.fire(e.runFirst())
	}
}

// Stop halts Run/RunUntil after the current event. Pending events remain
// queued — their slots stay live and return to the free-list only when
// they are eventually consumed (after Resume) or the engine is discarded.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears a previous Stop.
func (e *Engine) Resume() { e.stopped = false }

// liveSlots reports slots currently holding a pending event (test hook for
// the free-list accounting invariant).
func (e *Engine) liveSlots() int { return len(e.slots) - len(e.free) }

// Timer is a cancellable scheduled callback.
//
// Ownership: the handle is valid until its event is consumed — when the
// callback runs, or when the engine reaches a cancelled timer's instant
// and discards it. After consumption the engine recycles the struct for
// a later AfterTimer, so a retained handle may alias a different, live
// timer. Holders that keep a handle in a field must clear it when the
// callback fires or they stop it (as the NVMe coalescer and the stack's
// doorbell proxy do); querying or stopping a stale handle acts on
// whatever timer owns the memory now. The state of a fired or cancelled
// timer remains readable until the struct is actually reused.
type Timer struct {
	stopped bool
	fired   bool
}

// Stop cancels the timer if it has not fired. It reports whether the call
// prevented the callback from running. The queued event remains queued
// and is discarded (slot recycled, callback skipped) when its instant is
// reached.
func (t *Timer) Stop() bool {
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Fired reports whether the callback has run.
func (t *Timer) Fired() bool { return t.fired }

// Active reports whether the timer is still pending.
func (t *Timer) Active() bool { return !t.fired && !t.stopped }

// newTimer returns a reset Timer handle, reusing a consumed one from
// timerFree when there is one. AfterTimer and AfterTimerArg share it.
func (e *Engine) newTimer() *Timer {
	if n := len(e.timerFree); n > 0 {
		t := e.timerFree[n-1]
		e.timerFree = e.timerFree[:n-1]
		*t = Timer{}
		return t
	}
	return &Timer{}
}

// AfterTimer schedules fn to run d from now and returns a handle that can
// cancel it. Unlike After, the callback is dispatched through the timer's
// slot directly — no wrapper closure is allocated, and the handle itself
// comes from the engine's recycle list once one has been consumed, so
// steady-state cancellable scheduling allocates nothing.
//
//ddvet:hotpath
func (e *Engine) AfterTimer(d Duration, fn func()) *Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	t := e.newTimer()
	e.seq++
	at := e.now.Add(d)
	ev := event{at: at, seq: e.seq, id: e.allocSlot(fn, t)}
	if tick := int64(at) >> wheelTickShift; tick == e.wh.cur {
		e.push(ev)
	} else {
		e.wheelInsert(ev, tick)
	}
	return t
}

// AfterTimerArg is AfterTimer for argument-carrying callbacks: one
// long-lived fn serves every timer of a kind, with the target object
// passed as arg, so arming a cancellable timer never binds a closure.
//
//ddvet:hotpath
func (e *Engine) AfterTimerArg(d Duration, fn func(any), arg any) *Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	t := e.newTimer()
	e.seq++
	at := e.now.Add(d)
	id := e.allocArgSlot(fn, arg)
	e.slots[id].timer = t
	ev := event{at: at, seq: e.seq, id: id}
	if tick := int64(at) >> wheelTickShift; tick == e.wh.cur {
		e.push(ev)
	} else {
		e.wheelInsert(ev, tick)
	}
	return t
}
