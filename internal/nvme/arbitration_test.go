package nvme

import (
	"testing"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

func wrrConfig() Config {
	cfg := testConfig()
	cfg.Arbitration = ArbWeightedRoundRobin
	cfg.WRR = DefaultWRRWeights()
	return cfg
}

func newWRRDevice(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.New()
	pool := cpus.NewPool(eng, 1, cpus.Config{})
	return eng, New(eng, pool, wrrConfig())
}

func TestQueueClassStrings(t *testing.T) {
	for c, want := range map[QueueClass]string{
		ClassUrgent: "urgent", ClassHigh: "high", ClassMedium: "medium", ClassLow: "low",
	} {
		if c.String() != want {
			t.Errorf("class %d String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestWRRWeightsValidation(t *testing.T) {
	cfg := wrrConfig()
	cfg.WRR = WRRWeights{High: 0, Medium: 1, Low: 1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero weight must be invalid under WRR")
	}
	cfg.Arbitration = ArbRoundRobin
	if err := cfg.Validate(); err != nil {
		t.Fatalf("weights must be ignored under RR: %v", err)
	}
}

func TestNSQClassAssignment(t *testing.T) {
	_, d := newWRRDevice(t)
	if d.NSQ(0).Class() != ClassMedium {
		t.Fatalf("default class = %v, want medium", d.NSQ(0).Class())
	}
	d.NSQ(0).SetClass(ClassHigh)
	if d.NSQ(0).Class() != ClassHigh {
		t.Fatal("SetClass did not apply")
	}
}

func TestWRRUrgentStrictPriority(t *testing.T) {
	eng, d := newWRRDevice(t)
	ten := &block.Tenant{ID: 1, Core: 0}
	d.NSQ(0).SetClass(ClassLow)
	d.NSQ(1).SetClass(ClassUrgent)
	var first *block.Request
	// Pile work on the low queue, then one urgent request.
	for i := 0; i < 8; i++ {
		rq := &block.Request{ID: uint64(i), Tenant: ten, Size: 131072, Op: block.OpWrite, NSQ: -1}
		rq.OnComplete = func(r *block.Request) {}
		d.Enqueue(eng.Now(), 0, rq, true)
	}
	urgent := &block.Request{ID: 99, Tenant: ten, Size: 4096, NSQ: -1}
	urgent.OnComplete = func(r *block.Request) {}
	urgent.Span = &obs.Span{}
	d.Enqueue(eng.Now(), 1, urgent, true)
	first = urgent
	eng.Run()
	// The urgent request is fetched within the first couple of fetch slots
	// despite arriving last.
	maxWait := 3 * (d.Config().FetchCost + 32*d.Config().FetchPerPage)
	if wait := first.Span.Fetch.Sub(first.Span.Submit); wait > maxWait {
		t.Fatalf("urgent request waited %v for fetch", wait)
	}
}

func TestWRRHighClassFetchedMoreOften(t *testing.T) {
	eng, d := newWRRDevice(t)
	ten := &block.Tenant{ID: 1, Core: 0}
	d.NSQ(0).SetClass(ClassHigh)
	d.NSQ(1).SetClass(ClassLow)
	// Equal backlogs; high class should drain markedly earlier.
	var highDone, lowDone sim.Time
	for i := 0; i < 12; i++ {
		rqH := &block.Request{ID: uint64(i), Tenant: ten, Size: 4096, NSQ: -1}
		rqH.OnComplete = func(r *block.Request) { highDone = eng.Now() }
		d.Enqueue(eng.Now(), 0, rqH, true)
		rqL := &block.Request{ID: uint64(100 + i), Tenant: ten, Size: 4096, NSQ: -1}
		rqL.OnComplete = func(r *block.Request) { lowDone = eng.Now() }
		d.Enqueue(eng.Now(), 1, rqL, true)
	}
	eng.Run()
	if highDone >= lowDone {
		t.Fatalf("high class drained at %v, low at %v; want high earlier", highDone, lowDone)
	}
}

func TestWRRDoesNotStarveLow(t *testing.T) {
	eng, d := newWRRDevice(t)
	ten := &block.Tenant{ID: 1, Core: 0}
	d.NSQ(0).SetClass(ClassHigh)
	d.NSQ(1).SetClass(ClassLow)
	lowCompleted := 0
	// Keep the high queue constantly replenished for a while; low requests
	// must still complete (weighted, not strict).
	var refill func(i int)
	refill = func(i int) {
		if i >= 64 {
			return
		}
		rq := &block.Request{ID: uint64(i), Tenant: ten, Size: 4096, NSQ: -1}
		rq.OnComplete = func(r *block.Request) { refill(i + 1) }
		d.Enqueue(eng.Now(), 0, rq, true)
	}
	refill(0)
	for i := 0; i < 4; i++ {
		rq := &block.Request{ID: uint64(1000 + i), Tenant: ten, Size: 4096, NSQ: -1}
		rq.OnComplete = func(r *block.Request) { lowCompleted++ }
		d.Enqueue(eng.Now(), 1, rq, true)
	}
	eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if lowCompleted != 4 {
		t.Fatalf("low-class completed %d/4 under high-class pressure (starvation)", lowCompleted)
	}
}

func TestRRIgnoresClasses(t *testing.T) {
	eng := sim.New()
	pool := cpus.NewPool(eng, 1, cpus.Config{})
	d := New(eng, pool, testConfig()) // round-robin
	ten := &block.Tenant{ID: 1, Core: 0}
	d.NSQ(0).SetClass(ClassLow)
	d.NSQ(1).SetClass(ClassHigh)
	// Under RR both drain interleaved; equal 2-deep backlogs finish within
	// one fetch slot of each other.
	var aDone, bDone sim.Time
	for i := 0; i < 2; i++ {
		ra := &block.Request{ID: uint64(i), Tenant: ten, Size: 4096, NSQ: -1}
		ra.OnComplete = func(r *block.Request) { aDone = eng.Now() }
		d.Enqueue(eng.Now(), 0, ra, true)
		rb := &block.Request{ID: uint64(10 + i), Tenant: ten, Size: 4096, NSQ: -1}
		rb.OnComplete = func(r *block.Request) { bDone = eng.Now() }
		d.Enqueue(eng.Now(), 1, rb, true)
	}
	eng.Run()
	diff := aDone - bDone
	if diff < 0 {
		diff = -diff
	}
	if sim.Duration(diff) > 100*sim.Microsecond {
		t.Fatalf("RR drained classes unevenly: %v vs %v", aDone, bDone)
	}
}
