package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngineEventThroughput measures raw event scheduling+dispatch.
// TestSteadyStateSchedulingAllocFree pins the same loop at 0 allocs.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := New()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			e.After(10, fn)
		}
	}
	e.After(10, fn)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineFanout measures dispatch with a deep event heap.
func BenchmarkEngineFanout(b *testing.B) {
	e := New()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%1000), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// TestSteadyStateSchedulingAllocFree asserts the free-list actually makes
// the hot path allocation-free: once the engine reaches its high-water
// mark, After+Step must not allocate at all — on a near-empty engine and
// under a deep heap of pending events alike.
func TestSteadyStateSchedulingAllocFree(t *testing.T) {
	for _, parked := range []int{0, 1024} {
		t.Run(fmt.Sprintf("parked=%d", parked), func(t *testing.T) {
			e := New()
			fn := func() {}
			// Events beyond the wheel's horizon go straight to the heap,
			// so every measured push and pop sifts through them.
			for i := 0; i < parked; i++ {
				e.After(10*Second+Duration(i), fn)
			}
			// Reach the high-water mark so the slot table, free-list and
			// heap all have capacity.
			for i := 0; i < 64; i++ {
				e.After(Duration(i+1), fn)
			}
			for i := 0; i < 64; i++ {
				e.Step()
			}
			if got := testing.AllocsPerRun(1000, func() {
				e.After(1, fn)
				e.Step()
			}); got != 0 {
				t.Fatalf("steady-state After+Step allocates %.1f times/op, want 0", got)
			}
			// At with a pre-built closure is equally alloc-free.
			if got := testing.AllocsPerRun(1000, func() {
				e.At(e.Now()+1, fn)
				e.Step()
			}); got != 0 {
				t.Fatalf("steady-state At+Step allocates %.1f times/op, want 0", got)
			}
			if e.Pending() != parked {
				t.Fatalf("Pending = %d, want the %d parked events", e.Pending(), parked)
			}
		})
	}
}

// BenchmarkEngineTimerChurn measures cancellable scheduling.
// TestTimerHandleRecycling pins the same cycle at 0 allocs.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.AfterTimer(1, fn)
		if i%2 == 0 {
			tm.Stop()
		}
		e.Step()
	}
}

// BenchmarkRandUint64 measures the PRNG.
func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

// BenchmarkFIFOResAcquire measures the contention model.
func BenchmarkFIFOResAcquire(b *testing.B) {
	var r FIFORes
	for i := 0; i < b.N; i++ {
		r.Acquire(Time(i), 5)
	}
}

// BenchmarkEngineWheelBatch drains batches of n events that share one
// level-0 wheel tick, scheduled in sorted, reversed or random order of
// their instants, and reports ns per event. A sorted batch, and any batch
// of 16, drains as one run; a larger reversed or shuffled one passes the
// sort's cap early and goes through the heap.
func BenchmarkEngineWheelBatch(b *testing.B) {
	for _, order := range []string{"sorted", "reversed", "random"} {
		for _, n := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("%s/n=%d", order, n), func(b *testing.B) {
				// Offsets into the tick, distinct and in the batch's order.
				offs := make([]Duration, n)
				step := Duration(1<<wheelTickShift) / Duration(n)
				for k := range offs {
					offs[k] = Duration(k) * step
				}
				switch order {
				case "reversed":
					for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
						offs[i], offs[j] = offs[j], offs[i]
					}
				case "random":
					rng := NewRand(uint64(n))
					for i := n - 1; i > 0; i-- {
						j := rng.Intn(i + 1)
						offs[i], offs[j] = offs[j], offs[i]
					}
				}
				e := New()
				fn := func() {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Two ticks ahead: a level-0 slot of its own.
					base := Time((int64(e.Now())>>wheelTickShift + 2) << wheelTickShift)
					for _, off := range offs {
						e.At(base.Add(off), fn)
					}
					e.Run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
			})
		}
	}
}

// BenchmarkEngineRetryStorm is the overload cell's engine shape: parked
// timers re-arm at a 320 µs backoff cap (so each flushed slot holds a
// batch of them), and every firing is followed by a same-tick 500 ns
// core-finish event. One op is one event.
func BenchmarkEngineRetryStorm(b *testing.B) {
	const (
		parked  = 256
		backoff = 320 * Microsecond
		finish  = 500 * Nanosecond
	)
	e := New()
	n := 0
	done := func() { n++ }
	var retry func()
	retry = func() {
		n++
		if n < b.N {
			e.AfterTimer(backoff, retry)
			e.After(finish, done)
		}
	}
	rng := NewRand(1)
	for i := 0; i < parked; i++ {
		e.AfterTimer(Duration(rng.Int63n(int64(backoff))), retry)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
