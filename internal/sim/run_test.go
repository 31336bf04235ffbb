package sim

import (
	"sort"
	"testing"
)

// These tests pin the run: a flushed level-0 wheel slot, sorted in place
// and drained from the front while the heap takes same-tick pushes. Each
// schedule checks the firing order against a reference sort and the
// Pending/liveSlots accounting against an exact count, and asserts that
// the run actually held the events it is meant to exercise.

// runLog schedules cancellable events and records, for each, its
// (at, idx) with idx in scheduling order, the order seq gives.
type runLog struct {
	e         *Engine
	sched     []refEvent
	fired     []refEvent
	cancelled map[int]bool
	maxRun    int // the largest slot seen flushed as a run
}

func newRunLog() *runLog {
	return &runLog{e: New(), cancelled: map[int]bool{}}
}

// after schedules then to run d from now, and returns the timer and the
// event's idx.
func (l *runLog) after(d Duration, then func()) (*Timer, int) {
	idx := len(l.sched)
	l.sched = append(l.sched, refEvent{at: l.e.Now().Add(d), idx: idx})
	tm := l.e.AfterTimer(d, func() {
		l.fired = append(l.fired, refEvent{at: l.e.Now(), idx: idx})
		if len(l.e.run) > l.maxRun {
			l.maxRun = len(l.e.run)
		}
		if then != nil {
			then()
		}
	})
	return tm, idx
}

// stop cancels event idx through its timer and reports whether it was
// still pending.
func (l *runLog) stop(tm *Timer, idx int) bool {
	if !tm.Stop() {
		return false
	}
	l.cancelled[idx] = true
	return true
}

// pending is the exact count of queued events once every cancelled event
// has been consumed: scheduled, minus fired, minus cancelled.
func (l *runLog) pending() int { return len(l.sched) - len(l.fired) - len(l.cancelled) }

// checkPending compares Pending and liveSlots with the log's count.
// Cancelled events still queued are passed as stale.
func (l *runLog) checkPending(t *testing.T, stale int) {
	t.Helper()
	want := l.pending() + stale
	if got := l.e.Pending(); got != want {
		t.Fatalf("Pending = %d, want %d", got, want)
	}
	if got := l.e.liveSlots(); got != want {
		t.Fatalf("liveSlots = %d, want %d", got, want)
	}
}

// checkOrder compares the fired events with the (at, idx) sort of every
// scheduled, uncancelled event, and checks the drained engine's slot
// accounting.
func (l *runLog) checkOrder(t *testing.T) {
	t.Helper()
	var want []refEvent
	for _, r := range l.sched {
		if !l.cancelled[r.idx] {
			want = append(want, r)
		}
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].at != want[b].at {
			return want[a].at < want[b].at
		}
		return want[a].idx < want[b].idx
	})
	if len(l.fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(l.fired), len(want))
	}
	for k := range want {
		if l.fired[k] != want[k] {
			t.Fatalf("fired[%d] = event %d at %v, want event %d at %v",
				k, l.fired[k].idx, l.fired[k].at, want[k].idx, want[k].at)
		}
	}
	if l.e.Pending() != 0 || l.e.liveSlots() != 0 {
		t.Fatalf("Pending=%d liveSlots=%d after drain, want 0/0", l.e.Pending(), l.e.liveSlots())
	}
	if int(l.e.Recycled) != len(l.sched) {
		t.Fatalf("Recycled = %d, want %d (each event freed exactly once)", l.e.Recycled, len(l.sched))
	}
}

// tickStart is the first instant of wheel tick k.
func tickStart(k int64) Time { return Time(k << wheelTickShift) }

// TestRunRetryStorm is the overload cell's shape: hundreds of handles
// re-arm at a fixed 320 µs backoff, each firing followed by a same-tick
// 500 ns completion that goes to the heap while the run drains.
func TestRunRetryStorm(t *testing.T) {
	const (
		handles = 300
		rounds  = 12
		backoff = 320 * Microsecond
		finish  = 500 * Nanosecond
	)
	l := newRunLog()
	var arm func(h, round int) func()
	arm = func(h, round int) func() {
		return func() {
			l.after(finish, nil)
			if round < rounds {
				l.after(backoff, arm(h, round+1))
			}
			l.checkPending(t, 0)
		}
	}
	rng := NewRand(3)
	for h := 0; h < handles; h++ {
		// Start within two ticks, so every round's re-arms land in the
		// same few slots in a nearly-sorted order.
		l.after(Duration(rng.Int63n(2<<wheelTickShift)), arm(h, 1))
	}
	l.e.Run()
	l.checkOrder(t)
	if want := 2 * handles * rounds; len(l.fired) != want {
		t.Fatalf("fired %d, want %d", len(l.fired), want)
	}
	if l.maxRun < handles/4 {
		t.Fatalf("run held at most %d events; the storm no longer batches through it", l.maxRun)
	}
}

// TestRunCascadeIntoNextSlot drains a run in tick 127 whose callbacks
// schedule into tick 128, the slot next to it, while a level-1 window
// holding earlier-scheduled events at the same instants cascades into
// that slot. The slot then holds equal instants out of seq order, and
// only the seq tiebreak of the sort restores it.
func TestRunCascadeIntoNextSlot(t *testing.T) {
	l := newRunLog()
	next := tickStart(128)
	// Level 1 from t=0: the window of ticks [128, 192).
	for k := 0; k < 8; k++ {
		l.after(Duration(next)+Duration(k*100), nil)
	}
	l.after(Duration(tickStart(100)), func() {
		// Tick 127 is 27 ticks ahead: level 0, flushed as a run.
		for k := 0; k < 8; k++ {
			l.after(tickStart(127).Sub(l.e.Now())+Duration(k*50), func() {
				if l.e.wh.cur != 127 {
					t.Fatalf("wheel clock %d inside tick 127's run", l.e.wh.cur)
				}
				// Tick 128 is the next slot: the same instants as the
				// level-1 events, with larger seq.
				l.after(next.Sub(l.e.Now())+Duration(k*100), nil)
				l.checkPending(t, 0)
			})
		}
	})
	l.e.Run()
	l.checkOrder(t)
	if l.maxRun < 8 {
		t.Fatalf("run held at most %d events, want 8", l.maxRun)
	}
}

// TestRunTimerStop cancels run residents from inside the run: a later
// event of the same run, one already fired, and one twice. Cancelled
// events stay queued until consumed, then recycle without firing.
func TestRunTimerStop(t *testing.T) {
	l := newRunLog()
	const n = 16
	tms := make([]*Timer, n)
	idxs := make([]int, n)
	stale := 0
	for k := 0; k < n; k++ {
		tms[k], idxs[k] = l.after(Duration(tickStart(5))+Duration(k*10), func() {
			if k%4 != 0 {
				return
			}
			if k+2 < n {
				if !l.stop(tms[k+2], idxs[k+2]) {
					t.Fatalf("Stop on pending run resident %d returned false", k+2)
				}
				if l.stop(tms[k+2], idxs[k+2]) {
					t.Fatalf("second Stop on %d returned true", k+2)
				}
				stale++
			}
			if l.stop(tms[k], idxs[k]) {
				t.Fatalf("Stop on the firing timer %d returned true", k)
			}
			l.checkPending(t, stale)
		})
	}
	// Consume the stale entries as the run passes them.
	for k := 2; k < n; k += 4 {
		l.after(Duration(tickStart(5))+Duration(k*10+1), func() {
			stale--
			l.checkPending(t, stale)
		})
	}
	l.e.Run()
	l.checkOrder(t)
	if l.e.Executed != uint64(len(l.fired)) {
		t.Fatalf("Executed = %d, want %d (cancelled events must not count)", l.e.Executed, len(l.fired))
	}
	if l.maxRun < n {
		t.Fatalf("run held at most %d events, want %d", l.maxRun, n)
	}
}

// TestRunUntilMidRun stops a RunUntil horizon between two run residents,
// then schedules into the rest of the tick, so heap pushes interleave with
// the remaining run, before, between and on its instants. A
// beyond-horizon event parked in the heap keeps the heap top later than
// the horizon throughout, so only the run head can satisfy it.
func TestRunUntilMidRun(t *testing.T) {
	l := newRunLog()
	l.after(10*Second, nil)
	base := tickStart(9)
	for k := 0; k < 20; k++ {
		l.after(Duration(base)+Duration(k*100), nil)
	}
	horizon := base + 950
	l.e.RunUntil(horizon)
	if len(l.fired) != 10 {
		t.Fatalf("RunUntil fired %d, want the 10 events at or before the horizon", len(l.fired))
	}
	if l.e.Now() != horizon {
		t.Fatalf("Now = %v after RunUntil, want %v", l.e.Now(), horizon)
	}
	if got := len(l.e.run) - l.e.rh; got != 10 {
		t.Fatalf("run holds %d after RunUntil, want 10", got)
	}
	l.checkPending(t, 0)
	for _, d := range []Duration{1, 50, 150, 250, 250, 1000, 0} {
		l.after(d, nil)
	}
	l.checkPending(t, 0)
	// An inclusive horizon exactly on a run resident's instant.
	l.e.RunUntil(base + 1200)
	if l.e.Now() != base+1200 || l.fired[len(l.fired)-1].at != base+1200 {
		t.Fatalf("RunUntil(%v) stopped at %v, last fired at %v", base+1200, l.e.Now(), l.fired[len(l.fired)-1].at)
	}
	l.checkPending(t, 0)
	l.e.Run()
	l.checkOrder(t)
	if l.maxRun < 20 {
		t.Fatalf("run held at most %d events, want 20", l.maxRun)
	}
}

// TestRunStopResume stops the engine from a run resident's callback,
// schedules while stopped, and resumes: the run keeps its place and
// every event still fires in (at, seq) order.
func TestRunStopResume(t *testing.T) {
	l := newRunLog()
	base := tickStart(3)
	for k := 0; k < 12; k++ {
		l.after(Duration(base)+Duration(k*100), func() {
			if k == 4 {
				l.e.Stop()
			}
		})
	}
	l.e.Run()
	if len(l.fired) != 5 || l.e.Now() != base+400 {
		t.Fatalf("fired %d, Now %v after Stop; want 5 at %v", len(l.fired), l.e.Now(), base+400)
	}
	l.checkPending(t, 0)
	if l.e.Step() {
		t.Fatal("Step made progress while stopped")
	}
	// While stopped: same-tick pushes before, between and after the
	// remaining run, and a far one that stays in the wheel.
	for _, d := range []Duration{0, 150, 200, 1000, Duration(tickStart(70))} {
		l.after(d, nil)
	}
	// And a batch 64 ticks out, into the very slot the run was flushed
	// from, which must not share the run's buffer.
	for k := 0; k < 12; k++ {
		l.after(Duration(tickStart(64))+Duration(k), nil)
	}
	l.checkPending(t, 0)
	l.e.Resume()
	l.e.Run()
	l.checkOrder(t)
	if l.maxRun < 12 {
		t.Fatalf("run held at most %d events, want 12", l.maxRun)
	}
}

// TestSortRunCap pins the worst-case bound: a large reversed or shuffled
// slot is abandoned after linear work; a slot in scheduling order, and
// any slot of 16 events, sorts.
func TestSortRunCap(t *testing.T) {
	mk := func(n int, at func(k int) Time) []event {
		evs := make([]event, n)
		for k := range evs {
			evs[k] = event{at: at(k), seq: uint64(k + 1)}
		}
		return evs
	}
	if !sortRun(mk(4096, func(k int) Time { return Time(k / 3) })) {
		t.Fatal("sorted slot exceeded the cap")
	}
	small := mk(16, func(k int) Time { return Time(16 - k) })
	if !sortRun(small) || small[0].at != 1 || small[15].at != 16 {
		t.Fatal("reversed slot of 16 did not sort")
	}
	if sortRun(mk(4096, func(k int) Time { return Time(4096 - k) })) {
		t.Fatal("reversed slot of 4096 sorted within the cap")
	}
	rng := NewRand(9)
	shuffled := mk(4096, func(int) Time { return Time(rng.Intn(1 << 14)) })
	if sortRun(shuffled) {
		t.Fatal("shuffled slot of 4096 sorted within the cap")
	}
	// Whatever the outcome, the slot keeps every event.
	seen := make(map[uint64]bool, len(shuffled))
	for _, ev := range shuffled {
		seen[ev.seq] = true
	}
	if len(seen) != 4096 {
		t.Fatalf("abandoned sort kept %d distinct events, want 4096", len(seen))
	}
	// A reversed slot fires in order through the heap fallback.
	l := newRunLog()
	for k := 0; k < 256; k++ {
		l.after(Duration(tickStart(4))+Duration(4096-k), nil)
	}
	l.e.Run()
	l.checkOrder(t)
	if l.maxRun != 0 {
		t.Fatalf("a reversed slot became a run of %d", l.maxRun)
	}
}
