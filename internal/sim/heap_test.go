package sim

import (
	"sort"
	"testing"
)

// These tests pin down the typed 4-ary heap that replaced container/heap:
// dispatch must follow exactly (time, seq) order — same-instant events in
// scheduling (FIFO) order — for any schedule/cancel interleaving.

// refEvent is the reference model: a plain slice sorted stably by
// (time, insertion index).
type refEvent struct {
	at  Time
	idx int
}

// TestHeapDispatchMatchesReferenceSort drives the engine with pseudo-random
// schedules (heavy on same-instant ties) and checks the dispatch order
// against a stable sort.
func TestHeapDispatchMatchesReferenceSort(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := NewRand(seed)
		e := New()
		n := int(rng.Intn(200)) + 1
		ref := make([]refEvent, 0, n)
		var got []int
		for i := 0; i < n; i++ {
			// A tiny time domain forces many same-instant collisions.
			at := Time(rng.Intn(16))
			ref = append(ref, refEvent{at: at, idx: i})
			i := i
			e.At(at, func() { got = append(got, i) })
		}
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].at < ref[b].at })
		e.Run()
		if len(got) != n {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(got), n)
		}
		for k := range ref {
			if got[k] != ref[k].idx {
				t.Fatalf("seed %d: dispatch[%d] = event %d, want %d (ties must be FIFO)",
					seed, k, got[k], ref[k].idx)
			}
		}
	}
}

// TestHeapDispatchWithNestedScheduling mixes pre-scheduled and
// callback-scheduled events and checks global (time, seq) order.
func TestHeapDispatchWithNestedScheduling(t *testing.T) {
	e := New()
	rng := NewRand(7)
	var fired []Time
	var schedule func()
	remaining := 500
	schedule = func() {
		fired = append(fired, e.Now())
		if remaining > 0 {
			remaining--
			e.After(Duration(rng.Intn(8)), schedule)
		}
	}
	for i := 0; i < 32; i++ {
		e.At(Time(rng.Intn(8)), schedule)
	}
	e.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("clock moved backwards: %v after %v", fired[i], fired[i-1])
		}
	}
	if len(fired) != 32+500 {
		t.Fatalf("fired %d, want %d", len(fired), 32+500)
	}
}

// TestFreeListRecyclesSlots checks the free-list accounting: every
// scheduled event returns its slot exactly once, whether it fires or is
// cancelled, and the slot table stops growing once the high-water mark of
// concurrently pending events is reached.
func TestFreeListRecyclesSlots(t *testing.T) {
	e := New()
	const n = 64
	var timers []*Timer
	for i := 0; i < n; i++ {
		timers = append(timers, e.AfterTimer(Duration(i+1), func() {}))
	}
	// Cancel every other timer; some twice (the second Stop must be inert).
	for i := 0; i < n; i += 2 {
		if !timers[i].Stop() {
			t.Fatalf("Stop on pending timer %d returned false", i)
		}
		if timers[i].Stop() {
			t.Fatalf("second Stop on timer %d returned true", i)
		}
	}
	if e.liveSlots() != n {
		t.Fatalf("liveSlots = %d before run, want %d (cancel must not free early)", e.liveSlots(), n)
	}
	e.Run()
	if e.liveSlots() != 0 {
		t.Fatalf("liveSlots = %d after run, want 0", e.liveSlots())
	}
	if e.Recycled != n {
		t.Fatalf("Recycled = %d, want %d (each slot freed exactly once)", e.Recycled, n)
	}
	if e.Executed != n/2 {
		t.Fatalf("Executed = %d, want %d (cancelled events must not fire)", e.Executed, n/2)
	}
	// Stop after fire is also inert.
	if timers[1].Stop() {
		t.Fatal("Stop after fire returned true")
	}
	// Steady state: slot table must not grow past the high-water mark.
	grown := len(e.slots)
	for i := 0; i < 10*n; i++ {
		e.After(1, func() {})
		e.Step()
	}
	if len(e.slots) != grown {
		t.Fatalf("slot table grew from %d to %d despite free-list", grown, len(e.slots))
	}
}

// TestEngineStopLeavesSlotsLive checks Engine.Stop semantics under the
// slot core: stopping the run loop must not free pending events' slots;
// they are recycled exactly once when consumed after Resume.
func TestEngineStopLeavesSlotsLive(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.After(Duration(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
	if e.liveSlots() != 7 {
		t.Fatalf("liveSlots = %d while stopped, want 7", e.liveSlots())
	}
	e.Resume()
	e.Run()
	if count != 10 || e.liveSlots() != 0 {
		t.Fatalf("count=%d liveSlots=%d after Resume, want 10/0", count, e.liveSlots())
	}
	if e.Recycled != 10 {
		t.Fatalf("Recycled = %d, want 10", e.Recycled)
	}
}

// TestPastSchedulingPanicMessage pins the exact panic text: harness code
// and downstream tooling match on it.
func TestPastSchedulingPanicMessage(t *testing.T) {
	e := New()
	e.After(10, func() {})
	e.Run()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("scheduling in the past must panic")
		}
		if msg, ok := p.(string); !ok || msg != "sim: scheduling event in the past" {
			t.Fatalf("panic = %v, want %q", p, "sim: scheduling event in the past")
		}
	}()
	e.At(5, func() {})
}

// fuzzDelay maps one byte onto a delay spanning every residency: the
// low three bits are a mantissa (0 gives same-instant ties), the high
// five an exponent from 2^8 ns, so delays run from the current tick
// through all three wheel levels (up to 2^32 ns) to beyond the horizon.
func fuzzDelay(x byte) Duration { return Duration(x&7) << (x>>3 + 8) }

// FuzzScheduleCancel feeds random schedule/step/cancel interleavings into
// the engine and checks the core invariants: every fired event's
// (at, seq) follows the reference sort of everything scheduled and not
// cancelled, the clock never moves backwards, and the slot accounting is
// exact. A schedule op takes its
// delay from the next byte (fuzzDelay), so the heap, every wheel level,
// the run and the beyond-horizon path all take part.
func FuzzScheduleCancel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 200, 1, 9, 2})
	f.Add([]byte{5, 5, 5, 1, 1, 1, 2, 2, 2})
	f.Add([]byte{})
	// Level-0 batches with ties, a cancel and steps between them.
	f.Add([]byte{0, 49, 1, 49, 0, 50, 1, 57, 2, 0, 3, 0, 50, 3, 3, 1, 49, 3})
	// Levels 1 and 2, the level-2 edge, beyond the horizon, then
	// same-tick pushes.
	f.Add([]byte{0, 100, 1, 150, 0, 193, 1, 201, 1, 255, 3, 0, 8, 1, 0, 3, 3, 3, 0, 16})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := New()
		var sched, fired []refEvent
		cancelled := map[int]bool{}
		var timers []*Timer
		owner := map[*Timer]int{} // the event a (recycled) handle now stands for
		last := Time(0)
		record := func(idx int) func() {
			return func() { fired = append(fired, refEvent{at: e.Now(), idx: idx}) }
		}
		for i := 0; i < len(ops); i++ {
			b := ops[i]
			switch b % 4 {
			case 0, 1: // plain or cancellable event
				var d Duration
				if i+1 < len(ops) {
					i++
					d = fuzzDelay(ops[i])
				}
				idx := len(sched)
				sched = append(sched, refEvent{at: e.Now().Add(d), idx: idx})
				if b%4 == 0 {
					e.After(d, record(idx))
					break
				}
				tm := e.AfterTimer(d, record(idx))
				owner[tm] = idx
				timers = append(timers, tm)
			case 2: // cancel one (double-Stops exercised too)
				// Retained handles may alias recycled timers, which is
				// exactly the contract the fuzzer should exercise: a
				// successful Stop always cancels one live timer, the
				// one that owns the memory now.
				if len(timers) > 0 {
					tm := timers[int(b/4)%len(timers)]
					if tm.Stop() {
						cancelled[owner[tm]] = true
					}
				}
			case 3: // make some progress
				e.Step()
				// Consuming a cancelled event moves the clock too.
				if e.Now() < last {
					t.Fatalf("clock moved backwards: %v < %v", e.Now(), last)
				}
				last = e.Now()
				if e.Pending() != e.liveSlots() {
					t.Fatalf("Pending = %d, liveSlots = %d; every queued event holds one slot", e.Pending(), e.liveSlots())
				}
			}
		}
		e.Run()
		var want []refEvent
		for _, r := range sched {
			if !cancelled[r.idx] {
				want = append(want, r)
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		if len(fired) != len(want) {
			t.Fatalf("fired %d, want %d (scheduled %d, cancelled %d)", len(fired), len(want), len(sched), len(cancelled))
		}
		for k := range want {
			if fired[k] != want[k] {
				t.Fatalf("fired[%d] = event %d at %v, want event %d at %v",
					k, fired[k].idx, fired[k].at, want[k].idx, want[k].at)
			}
		}
		if e.liveSlots() != 0 || e.Pending() != 0 {
			t.Fatalf("liveSlots=%d Pending=%d after drain, want 0/0", e.liveSlots(), e.Pending())
		}
		if int(e.Recycled) != len(sched) {
			t.Fatalf("Recycled = %d, want %d (each scheduled event freed exactly once)", e.Recycled, len(sched))
		}
	})
}
