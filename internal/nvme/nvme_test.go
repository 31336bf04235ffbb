package nvme

import (
	"testing"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/flash"
	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumNSQ = 8
	cfg.NumNCQ = 4
	cfg.QueueDepth = 16
	cfg.MaxInflight = 8
	cfg.Flash = flash.Config{
		Channels:        4,
		ChipsPerChannel: 2,
		PageSize:        4096,
		ReadLatency:     70 * sim.Microsecond,
		ProgramLatency:  420 * sim.Microsecond,
		XferLatency:     3 * sim.Microsecond,
	}
	return cfg
}

func newDevice(t *testing.T, cores int) (*sim.Engine, *cpus.Pool, *Device) {
	t.Helper()
	eng := sim.New()
	pool := cpus.NewPool(eng, cores, cpus.Config{})
	return eng, pool, New(eng, pool, testConfig())
}

func mkReq(id uint64, ten *block.Tenant, size int64, op block.OpKind) *block.Request {
	return &block.Request{ID: id, Tenant: ten, Size: size, Op: op, NSQ: -1}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.NumNCQ = bad.NumNSQ + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("NCQ > NSQ must be invalid")
	}
	bad = DefaultConfig()
	bad.QueueDepth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero depth must be invalid")
	}
	bad = DefaultConfig()
	bad.MaxInflight = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero inflight must be invalid")
	}
	bad = DefaultConfig()
	bad.NumNSQ = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero NSQ must be invalid")
	}
}

func TestNSQToNCQPairing(t *testing.T) {
	_, _, d := newDevice(t, 2)
	// 8 NSQs over 4 NCQs: NSQ i pairs with NCQ i%4.
	for i := 0; i < d.NumNSQ(); i++ {
		if d.NSQ(i).NCQ().ID != i%4 {
			t.Fatalf("NSQ %d paired with NCQ %d, want %d", i, d.NSQ(i).NCQ().ID, i%4)
		}
	}
}

func TestIRQCoreAssignment(t *testing.T) {
	_, _, d := newDevice(t, 2)
	for i := 0; i < d.NumNCQ(); i++ {
		if d.NCQOf(i).IRQCore() != i%2 {
			t.Fatalf("NCQ %d IRQ core = %d, want %d", i, d.NCQOf(i).IRQCore(), i%2)
		}
	}
}

func TestSingleRequestCompletes(t *testing.T) {
	eng, _, d := newDevice(t, 2)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := mkReq(1, ten, 4096, block.OpRead)
	done := false
	rq.IssueTime = eng.Now()
	rq.OnComplete = func(r *block.Request) { done = true }
	rq.Span = &obs.Span{} // untraced span: the layers stamp its lifecycle
	ok, _ := d.Enqueue(eng.Now(), 0, rq, true)
	if !ok {
		t.Fatal("enqueue rejected on empty queue")
	}
	eng.Run()
	if !done {
		t.Fatal("request never completed")
	}
	if rq.Latency() < 70*sim.Microsecond {
		t.Fatalf("latency %v below media read time", rq.Latency())
	}
	if rq.Latency() > 200*sim.Microsecond {
		t.Fatalf("uncontended 4KB read latency %v unexpectedly high", rq.Latency())
	}
	if rq.Span.Fetch < rq.Span.Submit || rq.CompleteTime < rq.Span.Fetch {
		t.Fatal("timestamps out of order")
	}
}

func TestQueueFullRejects(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	ten := &block.Tenant{ID: 1, Core: 0}
	accepted := 0
	for i := 0; i < 40; i++ {
		ok, _ := d.Enqueue(eng.Now(), 0, mkReq(uint64(i), ten, 4096, block.OpRead), false)
		if ok {
			accepted++
		}
	}
	if accepted != 16 {
		t.Fatalf("accepted %d, want exactly QueueDepth=16", accepted)
	}
	if d.NSQ(0).OverflowRejects != 24 {
		t.Fatalf("OverflowRejects = %d, want 24", d.NSQ(0).OverflowRejects)
	}
}

func TestDoorbellRequiredForFetch(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := mkReq(1, ten, 4096, block.OpRead)
	completed := false
	rq.OnComplete = func(r *block.Request) { completed = true }
	d.Enqueue(eng.Now(), 0, rq, false)
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if completed {
		t.Fatal("request completed without a doorbell ring")
	}
	if d.NSQ(0).Len() != 1 {
		t.Fatalf("NSQ len = %d, want 1", d.NSQ(0).Len())
	}
	d.Ring(0)
	eng.Run()
	if !completed {
		t.Fatal("request did not complete after Ring")
	}
}

func TestLockContentionCharged(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	ten := &block.Tenant{ID: 1, Core: 0}
	r1 := mkReq(1, ten, 4096, block.OpRead)
	r2 := mkReq(2, ten, 4096, block.OpRead)
	_, ov1 := d.Enqueue(eng.Now(), 0, r1, false)
	_, ov2 := d.Enqueue(eng.Now(), 0, r2, false)
	hold := d.Config().SQLockHold
	if ov1 != hold {
		t.Fatalf("first overhead = %v, want hold %v", ov1, hold)
	}
	if ov2 != 2*hold {
		t.Fatalf("second overhead = %v, want wait+hold = %v", ov2, 2*hold)
	}
	if r2.LockWait != hold {
		t.Fatalf("second LockWait = %v, want %v", r2.LockWait, hold)
	}
	if d.NSQ(0).InLockTime() != hold {
		t.Fatalf("InLockTime = %v, want %v", d.NSQ(0).InLockTime(), hold)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	ten := &block.Tenant{ID: 1, Core: 0}
	// Load NSQ 0 with many entries and NSQ 1 with one; the single entry on
	// NSQ 1 must be fetched second (RR), not after all of NSQ 0.
	for i := 0; i < 5; i++ {
		rq := mkReq(uint64(i), ten, 4096, block.OpRead)
		rq.OnComplete = func(r *block.Request) {}
		d.Enqueue(eng.Now(), 0, rq, true)
	}
	solo := mkReq(100, ten, 4096, block.OpRead)
	solo.OnComplete = func(r *block.Request) {}
	solo.Span = &obs.Span{}
	d.Enqueue(eng.Now(), 1, solo, true)
	eng.Run()
	// RR means the solo request's fetch must not wait for all 5: its fetch
	// time is bounded by two fetch slots.
	maxWait := 3 * (d.Config().FetchCost + 2*d.Config().FetchPerPage)
	if wait := solo.Span.Fetch.Sub(solo.Span.Submit); wait > maxWait {
		t.Fatalf("solo fetch waited %v; round-robin should interleave (max %v)", wait, maxWait)
	}
}

func TestHOLBlockingWithinNSQ(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	ten := &block.Tenant{ID: 1, Core: 0}
	// A 4KB read behind eight 128KB writes in the same NSQ suffers; the
	// same read alone on another NSQ does not.
	for i := 0; i < 8; i++ {
		rq := mkReq(uint64(i), ten, 131072, block.OpWrite)
		rq.OnComplete = func(r *block.Request) {}
		d.Enqueue(eng.Now(), 0, rq, true)
	}
	blocked := mkReq(50, ten, 4096, block.OpRead)
	blocked.IssueTime = eng.Now()
	blocked.OnComplete = func(r *block.Request) {}
	d.Enqueue(eng.Now(), 0, blocked, true)

	free := mkReq(51, ten, 4096, block.OpRead)
	free.IssueTime = eng.Now()
	free.OnComplete = func(r *block.Request) {}
	d.Enqueue(eng.Now(), 1, free, true)

	eng.Run()
	if blocked.Latency() < 2*free.Latency() {
		t.Fatalf("HOL blocking absent: blocked=%v free=%v", blocked.Latency(), free.Latency())
	}
}

func TestCrossCoreCompletionFlag(t *testing.T) {
	eng, _, d := newDevice(t, 2)
	// NCQ 0's IRQ core is 0. A tenant on core 1 submitting via NSQ 0 gets a
	// cross-core completion.
	ten := &block.Tenant{ID: 1, Core: 1}
	rq := mkReq(1, ten, 4096, block.OpRead)
	rq.OnComplete = func(r *block.Request) {}
	d.Enqueue(eng.Now(), 0, rq, true)
	eng.Run()
	if !rq.CrossCore {
		t.Fatal("cross-core completion not flagged")
	}
	// Same-core tenant is not flagged.
	ten0 := &block.Tenant{ID: 2, Core: 0}
	rq2 := mkReq(2, ten0, 4096, block.OpRead)
	rq2.OnComplete = func(r *block.Request) {}
	d.Enqueue(eng.Now(), 0, rq2, true)
	eng.Run()
	if rq2.CrossCore {
		t.Fatal("same-core completion wrongly flagged")
	}
}

func TestPerRequestPolicyLowerLatencyThanCoalesced(t *testing.T) {
	run := func(policy CompletionPolicy) sim.Duration {
		eng := sim.New()
		pool := cpus.NewPool(eng, 1, cpus.Config{})
		d := New(eng, pool, testConfig())
		d.NCQOf(0).SetPolicy(policy)
		ten := &block.Tenant{ID: 1, Core: 0}
		var total sim.Duration
		n := 4
		for i := 0; i < n; i++ {
			rq := mkReq(uint64(i), ten, 4096, block.OpRead)
			rq.IssueTime = eng.Now()
			rq.OnComplete = func(r *block.Request) { total += r.Latency() }
			d.Enqueue(eng.Now(), 0, rq, true)
		}
		eng.Run()
		return total / sim.Duration(n)
	}
	fast := run(CompletionPolicy{PerRequest: true})
	slow := run(CompletionPolicy{CoalesceMax: 16, CoalesceDelay: 500 * sim.Microsecond})
	if fast >= slow {
		t.Fatalf("per-request policy (%v) should beat heavy coalescing (%v)", fast, slow)
	}
}

func TestCoalesceBatchFiresOnMax(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	d.NCQOf(0).SetPolicy(CompletionPolicy{CoalesceMax: 2, CoalesceDelay: 10 * sim.Millisecond})
	ten := &block.Tenant{ID: 1, Core: 0}
	completed := 0
	for i := 0; i < 2; i++ {
		rq := mkReq(uint64(i), ten, 4096, block.OpRead)
		rq.OnComplete = func(r *block.Request) { completed++ }
		d.Enqueue(eng.Now(), 0, rq, true)
	}
	// Both complete well before the 10ms coalesce delay because the batch
	// threshold (2) fires the IRQ.
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if completed != 2 {
		t.Fatalf("completed %d before coalesce delay, want 2 (batch threshold)", completed)
	}
	if d.NCQOf(0).IRQs != 1 {
		t.Fatalf("IRQs = %d, want 1 (single batched interrupt)", d.NCQOf(0).IRQs)
	}
}

func TestCoalesceTimerFires(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	d.NCQOf(0).SetPolicy(CompletionPolicy{CoalesceMax: 64, CoalesceDelay: 200 * sim.Microsecond})
	ten := &block.Tenant{ID: 1, Core: 0}
	completed := false
	rq := mkReq(1, ten, 4096, block.OpRead)
	rq.OnComplete = func(r *block.Request) { completed = true }
	d.Enqueue(eng.Now(), 0, rq, true)
	eng.Run()
	if !completed {
		t.Fatal("lone CQE under large batch threshold must complete via timer")
	}
}

func TestInflightWindowBounds(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	ten := &block.Tenant{ID: 1, Core: 0}
	maxSeen := 0
	probe := func() {
		if d.Inflight() > maxSeen {
			maxSeen = d.Inflight()
		}
	}
	for i := 0; i < 16; i++ {
		rq := mkReq(uint64(i), ten, 131072, block.OpWrite)
		rq.OnComplete = func(r *block.Request) {}
		d.Enqueue(eng.Now(), i%4, rq, true)
	}
	for t := sim.Duration(0); t < 20*sim.Millisecond; t += 50 * sim.Microsecond {
		eng.After(t, probe)
	}
	eng.Run()
	if maxSeen > d.Config().MaxInflight {
		t.Fatalf("inflight reached %d, window is %d", maxSeen, d.Config().MaxInflight)
	}
	if maxSeen == 0 {
		t.Fatal("probe never observed inflight commands")
	}
}

func TestNamespacesShareNQs(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	d.CreateNamespaces(4)
	if d.NumNamespaces() != 4 {
		t.Fatalf("namespaces = %d, want 4", d.NumNamespaces())
	}
	// Distinct namespaces map to disjoint flash ranges...
	if d.resolve(0, 0) == d.resolve(1, 0) {
		t.Fatal("namespaces must not alias the same flash offset")
	}
	// ...but requests from both land in the same NSQ if routed there.
	ten := &block.Tenant{ID: 1, Core: 0}
	for ns := 0; ns < 2; ns++ {
		rq := mkReq(uint64(ns), ten, 4096, block.OpRead)
		rq.Namespace = ns
		rq.OnComplete = func(r *block.Request) {}
		d.Enqueue(eng.Now(), 3, rq, true)
	}
	if d.NSQ(3).Len() != 2 {
		t.Fatalf("NSQ 3 holds %d entries, want 2 (shared across namespaces)", d.NSQ(3).Len())
	}
	eng.Run()
}

func TestNamespaceStatsAndCounters(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := mkReq(1, ten, 8192, block.OpRead)
	rq.OnComplete = func(r *block.Request) {}
	d.Enqueue(eng.Now(), 0, rq, true)
	eng.Run()
	if d.NSQ(0).Submitted != 1 || d.NSQ(0).Fetched != 1 {
		t.Fatalf("NSQ counters submitted=%d fetched=%d, want 1/1", d.NSQ(0).Submitted, d.NSQ(0).Fetched)
	}
	cq := d.NCQOf(0)
	if cq.Completed != 1 || cq.IRQs == 0 || cq.InFlight != 0 {
		t.Fatalf("NCQ counters completed=%d irqs=%d inflight=%d", cq.Completed, cq.IRQs, cq.InFlight)
	}
}

func TestCreateNamespacesPanicsOnZero(t *testing.T) {
	_, _, d := newDevice(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("CreateNamespaces(0) must panic")
		}
	}()
	d.CreateNamespaces(0)
}

func TestSetIRQCoreValidation(t *testing.T) {
	_, _, d := newDevice(t, 2)
	d.NCQOf(0).SetIRQCore(1)
	if d.NCQOf(0).IRQCore() != 1 {
		t.Fatal("SetIRQCore did not apply")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range IRQ core must panic")
		}
	}()
	d.NCQOf(0).SetIRQCore(99)
}

func TestManyRequestsAllComplete(t *testing.T) {
	eng, _, d := newDevice(t, 2)
	ten := &block.Tenant{ID: 1, Core: 0}
	const n = 200
	completed := 0
	next := uint64(0)
	var issue func()
	issue = func() {
		if next >= n {
			return
		}
		id := next
		next++
		rq := mkReq(id, ten, 4096, block.OpRead)
		rq.Offset = int64(id) * 4096
		rq.IssueTime = eng.Now()
		rq.OnComplete = func(r *block.Request) {
			completed++
			issue()
		}
		if ok, _ := d.Enqueue(eng.Now(), int(id)%d.NumNSQ(), rq, true); !ok {
			t.Fatalf("enqueue %d rejected", id)
		}
	}
	for i := 0; i < 8; i++ {
		issue()
	}
	eng.Run()
	if completed != n {
		t.Fatalf("completed %d, want %d", completed, n)
	}
}

func TestCoalesceDelayDefaultsToIRQLatency(t *testing.T) {
	// CoalesceMax>0 with zero delay falls back to the IRQ latency, so a
	// lone CQE is never stranded.
	eng, _, d := newDevice(t, 1)
	d.NCQOf(0).SetPolicy(CompletionPolicy{CoalesceMax: 8})
	ten := &block.Tenant{ID: 1, Core: 0}
	done := false
	rq := mkReq(1, ten, 4096, block.OpRead)
	rq.OnComplete = func(r *block.Request) { done = true }
	d.Enqueue(eng.Now(), 0, rq, true)
	eng.Run()
	if !done {
		t.Fatal("lone CQE stranded under batch-only coalescing")
	}
}

func TestNamespaceResolveOutOfRangePanics(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := mkReq(1, ten, 4096, block.OpRead)
	rq.Namespace = 99
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range namespace must panic")
		}
	}()
	d.Enqueue(eng.Now(), 0, rq, true)
}

func TestZeroSizeRequestCompletes(t *testing.T) {
	eng, _, d := newDevice(t, 1)
	ten := &block.Tenant{ID: 1, Core: 0}
	done := false
	rq := mkReq(1, ten, 0, block.OpRead)
	rq.OnComplete = func(r *block.Request) { done = true }
	d.Enqueue(eng.Now(), 0, rq, true)
	eng.Run()
	if !done {
		t.Fatal("zero-size request never completed")
	}
}
