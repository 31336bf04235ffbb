package sim

import "math/bits"

// The hierarchical timing wheel fronts the 4-ary heap for long-horizon
// events. Scheduling into a wheel slot is O(1) — one append and a bitmap
// OR — so the timer-heavy tiers (per-command expiry, IRQ coalescing,
// sampler ticks, erase completions) stop paying the heap's O(log n)
// sift per insert and, more importantly, stop inflating the heap that
// every short-horizon event must sift through.
//
// Determinism is preserved by construction: the wheel only stages, and
// never fires a callback. Before the engine fires an event, prepare()
// flushes every wheel slot that could contain an earlier-or-equal
// instant. A flushed level-0 slot is sorted by (at, seq) in place and
// becomes the engine's run; the run head and the heap top together
// decide firing order by (at, seq) alone. Two events at the same instant
// therefore fire in scheduling order whether they travelled through the
// wheel, the heap, the run, or a mix — the same order the heap-only
// engine produced.
//
// Empty-run invariant: a slot flushes only when nothing pending is
// earlier than its tick, and every run event lies in the tick of the
// slot it came from, which is earlier. So the run is always empty when
// the next slot flushes (flush panics otherwise), and the flushed slot
// takes over the drained run's buffer in exchange: nothing is copied or
// allocated.
//
// Geometry: three levels of 64 slots above a tick of 2^wheelTickShift
// nanoseconds. Level l covers deltas of (64^l, 64^(l+1)] ticks; an event
// further out than the whole wheel (≈4.3 s at the default 16.4 µs tick)
// goes straight to the heap, as does anything landing in the current
// tick. A slot at level l+1 cascades into level l when the
// clock approaches its window, so each event is touched at most
// levels+1 times.
//
// Slot-residence invariant: every wheel event has tick ∈
// (wheelCur, wheelCur + 64^(l+1)] for its level l, which makes the slot
// index tick>>(6l) mod 64 unique per occupied window and lets the
// occupancy bitmaps find the next non-empty slot with one rotate and a
// trailing-zeros count instead of a scan.

const (
	// wheelTickShift sets the tick to 2^14 ns = 16.4 µs: coarse enough
	// that the sub-16µs kernel/device event chains (SQE fetch, CQE post,
	// IRQ delivery, ISR, context switch) usually land in the current tick
	// and take the direct heap path — one push instead of a wheel
	// insert-flush-push round trip — while flash-scale operations
	// (transfers, erases) and the timer tiers (per-command expiry, IRQ
	// coalescing, sampler ticks) still spread across the wheel and stay
	// out of every short event's sift path. Measured on the whole-
	// simulator benchmark this beats a 1µs tick by ~15% wall clock.
	wheelTickShift = 14
	wheelBits      = 6
	wheelSlots     = 1 << wheelBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 3
)

// wheel is the per-engine timing-wheel state.
type wheel struct {
	// slot[l][s] holds the pending events hashed to slot s of level l,
	// in arrival order (flush sorts a level-0 slot by (at, seq)). Slices
	// keep their capacity across flushes (a level-0 slot swaps buffers
	// with the drained run), so once the buffers have reached their
	// high-water mark scheduling allocates nothing.
	slot [wheelLevels][wheelSlots][]event
	// occ[l] has bit s set iff slot[l][s] is non-empty.
	occ [wheelLevels]uint64
	// cur is the wheel clock in ticks: every resident event has
	// tick > cur. It only advances, and never past an occupied slot's
	// window.
	cur int64
	// count is the number of resident events (Pending includes them).
	count int
	// minTick caches a lower bound on every resident event's tick
	// (0 = unknown, recompute by scanning). It lets prepare answer "is
	// the heap top earlier than everything in the wheel?" with one
	// compare instead of a bitmap scan per Step.
	minTick int64
	// arena is the carve source for first-touch slot capacity: slots take
	// their initial wheelSlotSeed-event backing from one shared chunk, so
	// a fresh engine pays one allocation per arenaChunk carves instead of
	// one per touched slot (192 slots × 3 levels would otherwise each
	// allocate during ramp-up).
	arena []event
}

const (
	// wheelSlotSeed is a slot's first-touch capacity: big enough that a
	// fresh engine skips the 1→2→4→8 append-growth ladder, small enough
	// that 192 seeded slots stay under a few kilobytes of arena.
	wheelSlotSeed = 8
	// arenaChunk is the arena refill size, in events.
	arenaChunk = 32 * wheelSlotSeed
)

// schedule routes one event to a wheel slot or, for the current tick and
// beyond-horizon deltas, the heap. The same-tick case is the short-delay
// fast path (device events within one tick of now) and stays small
// enough to inline into At.
//
//ddvet:hotpath
func (e *Engine) schedule(ev event) {
	tick := int64(ev.at) >> wheelTickShift
	if tick == e.wh.cur {
		// Same tick as the wheel clock: the heap alone orders it.
		e.push(ev)
		return
	}
	e.wheelInsert(ev, tick)
}

// wheelInsert hashes an out-of-tick event into its wheel level, or the
// heap for already-flushed ticks and beyond-horizon deltas.
//
//ddvet:hotpath
func (e *Engine) wheelInsert(ev event, tick int64) {
	dt := tick - e.wh.cur
	var lvl int
	switch {
	case dt < 1:
		// An already-flushed tick: the heap alone orders it.
		e.push(ev)
		return
	case dt <= wheelSlots:
		lvl = 0
	case dt <= wheelSlots*wheelSlots:
		lvl = 1
	case dt <= wheelSlots*wheelSlots*wheelSlots:
		lvl = 2
	default:
		// Beyond the wheel horizon (~275 ms): rare, heap absorbs it.
		e.push(ev)
		return
	}
	s := int(tick>>(wheelBits*lvl)) & wheelMask
	sl := e.wh.slot[lvl][s]
	if cap(sl) == 0 {
		// First touch of this slot: carve seed capacity from the shared
		// arena. The capped three-index carve means a slot outgrowing its
		// seed reallocates privately without clobbering its neighbor.
		if len(e.wh.arena) < wheelSlotSeed {
			e.wh.arena = make([]event, arenaChunk)
		}
		sl = e.wh.arena[:0:wheelSlotSeed]
		e.wh.arena = e.wh.arena[wheelSlotSeed:]
	}
	e.wh.slot[lvl][s] = append(sl, ev)
	e.wh.occ[lvl] |= 1 << uint(s)
	e.wh.count++
	// Refine the cached bound. 0 means "unknown": it may only become
	// known again via a scan or when this insert is the sole resident —
	// seeding it from one insert while other slots hold events would
	// fabricate a bound above their ticks.
	if e.wh.count == 1 || (e.wh.minTick != 0 && tick < e.wh.minTick) {
		e.wh.minTick = tick
	}
}

// nextSlot finds level l's earliest occupied slot relative to the wheel
// clock. It returns the slot index and its offset in windows of that
// level, in [1, 64] — offset 64 is the wrap slot (delta exactly 64
// windows), reachable because each level admits deltas up to and
// including its full span.
func (w *wheel) nextSlot(l int) (s, offset int, ok bool) {
	bm := w.occ[l]
	if bm == 0 {
		return 0, 0, false
	}
	cur := int(w.cur>>(wheelBits*l)) & wheelMask
	// Rotate so bit k represents slot cur+1+k (mod 64): trailing zeros
	// then count windows-minus-one to the first occupied slot.
	rot := bits.RotateLeft64(bm, -(cur + 1))
	offset = bits.TrailingZeros64(rot) + 1
	return (cur + offset) & wheelMask, offset, true
}

// scan locates the wheel's most urgent slot: the level and slot to act
// on next, plus a lower bound (in ticks) on every event that slot holds.
// For level 0 the bound is the slot's exact tick; for higher levels it
// is the window's start tick. Ties prefer the higher level so a window
// always cascades before the clock advances into it.
func (e *Engine) wheelScan() (lvl, slot int, lb int64) {
	lvl = -1
	for l := wheelLevels - 1; l >= 0; l-- {
		s, offset, ok := e.wh.nextSlot(l)
		if !ok {
			continue
		}
		shift := uint(wheelBits * l)
		b := (e.wh.cur>>shift + int64(offset)) << shift
		// Strict < : on a tie the higher level keeps the pick, so its
		// window cascades before the clock advances into it — otherwise
		// the window's slot would alias the wrap position and its
		// events would flush an entire revolution late.
		if lvl < 0 || b < lb {
			lvl, slot, lb = l, s, b
		}
	}
	return lvl, slot, lb
}

// runSortSlack and runSortMovesPerEvent cap sortRun's insertion work:
// after the i-th event the moves so far may not exceed
// slack + perEvent·i, so a slot costs at most linear work. Slots fill in
// scheduling order and sort with 1.0–1.4 moves per event. Any slot of
// up to 16 events sorts, even reversed, which still beats the heap; a
// larger reversed or shuffled slot passes the cap within its first 16 to
// 30 events and goes to the heap instead.
const (
	runSortSlack         = 64
	runSortMovesPerEvent = 4
)

// sortRun insertion-sorts a level-0 slot by (at, seq). It gives up,
// leaving evs permuted, and reports false once the moves pass the cap.
func sortRun(evs []event) bool {
	moves := 0
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i
		for j > 0 && ev.before(evs[j-1]) {
			evs[j] = evs[j-1]
			j--
		}
		evs[j] = ev
		moves += i - j
		if moves > runSortSlack+runSortMovesPerEvent*i {
			return false
		}
	}
	return true
}

// flush acts on scan's choice: a level-0 slot becomes the run (or, if it
// will not sort within the cap, empties into the heap); a higher-level
// slot cascades its window down, re-hashing each event by its remaining
// delta. Either way the wheel clock advances to just before the slot's
// window, so re-hashed events land strictly below their old level and
// every skipped tick is provably empty.
//
//ddvet:hotpath
func (e *Engine) flush(lvl, slot int, lb int64) {
	evs := e.wh.slot[lvl][slot]
	e.wh.slot[lvl][slot] = evs[:0]
	e.wh.occ[lvl] &^= 1 << uint(slot)
	e.wh.count -= len(evs)
	// The flushed slot may have been the bound's witness; cascaded
	// re-inserts below refine the cache again.
	e.wh.minTick = 0
	if lvl == 0 {
		if e.rh < len(e.run) {
			panic("sim: wheel slot flushed before the run drained")
		}
		e.wh.cur = lb
		if sortRun(evs) {
			e.wh.slot[0][slot] = e.run[:0]
			e.run, e.rh = evs, 0
			return
		}
		for _, ev := range evs {
			e.push(ev)
		}
		return
	}
	e.wh.cur = lb - 1
	for _, ev := range evs {
		e.schedule(ev)
	}
}

// prepare establishes the fire invariant: when it returns true, the
// earlier of the run head and the heap top is the globally earliest
// pending event. The wheel-empty case inlines into Step/Run/RunUntil;
// with residents, a pending run or one cached compare usually settles it.
//
//ddvet:hotpath
func (e *Engine) prepare() bool {
	if e.wh.count == 0 {
		return len(e.events) > 0 || e.rh < len(e.run)
	}
	return e.prepareWheel()
}

// prepareWheel flushes wheel slots only while one could still contain an
// earlier-or-equal instant than the heap top, so a RunUntil horizon far
// short of the wheel's content moves at most one slot per call instead
// of draining the whole wheel.
//
//ddvet:hotpath
func (e *Engine) prepareWheel() bool {
	for e.wh.count > 0 {
		if e.rh < len(e.run) {
			// Run events lie in the wheel clock's tick, before every
			// wheel resident.
			return true
		}
		if len(e.events) > 0 && e.wh.minTick > 0 &&
			e.events[0].at < Time(e.wh.minTick<<wheelTickShift) {
			return true
		}
		lvl, slot, lb := e.wheelScan()
		e.wh.minTick = lb
		if len(e.events) > 0 && e.events[0].at < Time(lb<<wheelTickShift) {
			return true
		}
		e.flush(lvl, slot, lb)
	}
	return len(e.events) > 0 || e.rh < len(e.run)
}
