package stackbase

import (
	"testing"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/nvme"
	"daredevil/internal/sim"
)

func newEnv(t *testing.T) Env {
	t.Helper()
	eng := sim.New()
	pool := cpus.NewPool(eng, 2, cpus.Config{})
	cfg := nvme.DefaultConfig()
	cfg.NumNSQ = 4
	cfg.NumNCQ = 4
	cfg.QueueDepth = 4
	dev := nvme.New(eng, pool, cfg)
	return Env{Eng: eng, Pool: pool, Dev: dev}
}

func TestNextIDMonotonic(t *testing.T) {
	b := DefaultBase(newEnv(t))
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		id := b.NextID()
		if id <= prev {
			t.Fatalf("NextID not monotonic: %d after %d", id, prev)
		}
		prev = id
	}
}

func TestSplitAllRespectsMaxIOSize(t *testing.T) {
	b := DefaultBase(newEnv(t))
	b.MaxIOSize = 4096
	rq := &block.Request{Size: 10000}
	parts := b.SplitAll(rq)
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3", len(parts))
	}
}

func TestSplitAllDisabled(t *testing.T) {
	b := DefaultBase(newEnv(t))
	b.MaxIOSize = 0
	rq := &block.Request{Size: 1 << 20}
	parts := b.SplitAll(rq)
	if len(parts) != 1 || parts[0] != rq {
		t.Fatal("splitting disabled must return the request unchanged")
	}
}

func TestEnqueueOrRetrySuccess(t *testing.T) {
	env := newEnv(t)
	b := DefaultBase(env)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := &block.Request{ID: 1, Tenant: ten, Size: 4096, NSQ: -1}
	rq.OnComplete = func(r *block.Request) {}
	accepted, overhead := b.EnqueueOrRetry(rq, 0, true)
	if !accepted {
		t.Fatal("enqueue on an empty queue must be accepted")
	}
	if overhead <= 0 {
		t.Fatalf("overhead = %v, want positive (lock hold)", overhead)
	}
	if b.Requeues != 0 {
		t.Fatal("successful enqueue must not count a requeue")
	}
}

func TestEnqueueOrRetryEventuallySucceeds(t *testing.T) {
	env := newEnv(t)
	b := DefaultBase(env)
	ten := &block.Tenant{ID: 1, Core: 0}
	// Fill NSQ 0 (depth 4) without ringing, so it stays full until we ring.
	for i := 0; i < 4; i++ {
		rq := &block.Request{ID: uint64(i), Tenant: ten, Size: 4096, NSQ: -1}
		rq.OnComplete = func(r *block.Request) {}
		if ok, _ := env.Dev.Enqueue(env.Eng.Now(), 0, rq, false); !ok {
			t.Fatal("setup enqueue failed")
		}
	}
	done := false
	rq := &block.Request{ID: 99, Tenant: ten, Size: 4096, NSQ: -1}
	rq.OnComplete = func(r *block.Request) { done = true }
	accepted, overhead := b.EnqueueOrRetry(rq, 0, true)
	if accepted {
		t.Fatal("enqueue on a full queue must be deferred")
	}
	if overhead != b.RequeueCost {
		t.Fatalf("overhead on full queue = %v, want RequeueCost %v", overhead, b.RequeueCost)
	}
	if b.Requeues != 1 {
		t.Fatalf("Requeues = %d, want 1", b.Requeues)
	}
	// Drain the queue; the retry must land and complete.
	env.Dev.Ring(0)
	env.Eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if !done {
		t.Fatal("retried request never completed")
	}
}

func TestDefaultBaseDefaults(t *testing.T) {
	b := DefaultBase(newEnv(t))
	if b.MaxIOSize != 256*1024 {
		t.Fatalf("MaxIOSize = %d", b.MaxIOSize)
	}
	if b.RetryDelay <= 0 || b.RequeueCost <= 0 {
		t.Fatal("retry parameters must be positive")
	}
}

func TestRetryWithNilTenantUsesCoreZero(t *testing.T) {
	env := newEnv(t)
	b := DefaultBase(env)
	for i := 0; i < 4; i++ {
		rq := &block.Request{ID: uint64(i), Size: 4096, NSQ: -1}
		rq.OnComplete = func(r *block.Request) {}
		env.Dev.Enqueue(env.Eng.Now(), 0, rq, false)
	}
	done := false
	rq := &block.Request{ID: 99, Size: 4096, NSQ: -1} // no tenant
	rq.OnComplete = func(r *block.Request) { done = true }
	b.EnqueueOrRetry(rq, 0, true)
	env.Dev.Ring(0)
	env.Eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if !done {
		t.Fatal("tenant-less retry never completed")
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	b := DefaultBase(newEnv(t))
	b.RetryDelay = 10 * sim.Microsecond
	b.RetryMaxDelay = 80 * sim.Microsecond
	want := []sim.Duration{
		10 * sim.Microsecond, 20 * sim.Microsecond, 40 * sim.Microsecond,
		80 * sim.Microsecond, 80 * sim.Microsecond, 80 * sim.Microsecond,
	}
	for i, w := range want {
		if got := b.backoff(i); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
	// Zero RetryDelay falls back to the default initial delay.
	b.RetryDelay = 0
	if got := b.backoff(0); got != 10*sim.Microsecond {
		t.Fatalf("backoff(0) with zero RetryDelay = %v", got)
	}
}

func TestRetryAttemptsCounted(t *testing.T) {
	env := newEnv(t)
	b := DefaultBase(env)
	ten := &block.Tenant{ID: 1, Core: 0}
	// Fill NSQ 0 without ringing so retries keep failing for a while.
	for i := 0; i < 4; i++ {
		rq := &block.Request{ID: uint64(i), Tenant: ten, Size: 4096, NSQ: -1}
		rq.OnComplete = func(r *block.Request) {}
		env.Dev.Enqueue(env.Eng.Now(), 0, rq, false)
	}
	rq := &block.Request{ID: 99, Tenant: ten, Size: 4096, NSQ: -1}
	done := false
	rq.OnComplete = func(r *block.Request) { done = true }
	b.EnqueueOrRetry(rq, 0, true)
	// Let several backed-off retries fail, then drain.
	env.Eng.RunUntil(sim.Time(2 * sim.Millisecond))
	attemptsWhileFull := b.RetryAttempts
	env.Dev.Ring(0)
	env.Eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if !done {
		t.Fatal("retried request never completed")
	}
	if attemptsWhileFull < 2 {
		t.Fatalf("RetryAttempts = %d while queue stayed full, want several", attemptsWhileFull)
	}
	// Capped backoff: attempts over 2ms with a 320µs cap must be far fewer
	// than the 200 a constant 10µs retry would make.
	if attemptsWhileFull > 30 {
		t.Fatalf("RetryAttempts = %d over 2ms; backoff cap not applied", attemptsWhileFull)
	}
}

// TestFullNSQRetryAllocFree parks a request on a full NSQ and checks that
// its retries reuse one pooled record: K attempts allocate nothing, the
// record returns to the free list with its request reference dropped once
// the queue drains, and Requeues/RetryAttempts count as before.
func TestFullNSQRetryAllocFree(t *testing.T) {
	env := newEnv(t)
	b := DefaultBase(env)
	ten := &block.Tenant{ID: 1, Core: 0}
	for i := 0; i < 4; i++ {
		rq := &block.Request{ID: uint64(i), Tenant: ten, Size: 4096, NSQ: -1}
		rq.OnComplete = func(r *block.Request) {}
		if ok, _ := env.Dev.Enqueue(env.Eng.Now(), 0, rq, false); !ok {
			t.Fatal("setup enqueue failed")
		}
	}
	done := false
	rq := &block.Request{ID: 99, Tenant: ten, Size: 4096, NSQ: -1}
	rq.OnComplete = func(r *block.Request) { done = true }
	if accepted, _ := b.EnqueueOrRetry(rq, 0, true); accepted {
		t.Fatal("enqueue on a full queue must be deferred")
	}
	// attempt runs the engine until the parked request has made one more
	// failed attempt and been parked again.
	attempt := func() {
		n := b.RetryAttempts
		for b.RetryAttempts == n && env.Eng.Step() {
		}
	}
	attempt() // the engine's slot table and the core's queue reach their size
	const k = 50
	if allocs := testing.AllocsPerRun(k, attempt); allocs != 0 {
		t.Fatalf("%.0f allocs per full-NSQ retry attempt, want 0", allocs)
	}
	// One attempt from EnqueueOrRetry, one warm-up, and k+1 from
	// AllocsPerRun (it runs the function once before measuring).
	if b.Requeues != 1 || b.RetryAttempts != k+3 {
		t.Fatalf("Requeues=%d RetryAttempts=%d, want 1/%d", b.Requeues, b.RetryAttempts, k+3)
	}
	env.Dev.Ring(0)
	env.Eng.RunUntil(env.Eng.Now().Add(100 * sim.Millisecond))
	if !done {
		t.Fatal("retried request never completed")
	}
	if b.Requeues != 1 || b.RetryAttempts != k+3 {
		t.Fatalf("after drain: Requeues=%d RetryAttempts=%d, want 1/%d", b.Requeues, b.RetryAttempts, k+3)
	}
	if len(b.freeRetries) != 1 || b.freeRetries[0].live || b.freeRetries[0].rq != nil {
		t.Fatal("the drained request's retry record must be back in the pool, released and cleared")
	}
}

func TestHandleCancelRequeuesThenTerminal(t *testing.T) {
	env := newEnv(t)
	b := DefaultBase(env)
	b.MaxRequeues = 2
	resubmits := 0
	b.AttachRecovery(func(rq *block.Request) sim.Duration {
		resubmits++
		// Simulate the device cancelling the command again.
		env.Eng.After(sim.Microsecond, func() { b.handleCancel(rq) })
		return 0
	})
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := &block.Request{ID: 1, Tenant: ten, Size: 4096, NSQ: -1}
	completions := 0
	rq.OnComplete = func(r *block.Request) { completions++ }
	b.handleCancel(rq)
	env.Eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if completions != 1 {
		t.Fatalf("request completed %d times, want exactly 1", completions)
	}
	if rq.Err != ErrTerminal {
		t.Fatalf("Err = %v, want ErrTerminal", rq.Err)
	}
	if resubmits != 2 {
		t.Fatalf("resubmitted %d times, want MaxRequeues = 2", resubmits)
	}
	if b.CancelRequeues != 2 || b.TerminalFailures != 1 {
		t.Fatalf("CancelRequeues=%d TerminalFailures=%d, want 2/1",
			b.CancelRequeues, b.TerminalFailures)
	}
	// Each resubmission released its record before the next cancel took
	// one, so a single record served every round.
	if len(b.freeRetries) != 1 || b.freeRetries[0].rq != nil {
		t.Fatalf("%d free retry records, want the one record back in the pool", len(b.freeRetries))
	}
}

func TestHandleCancelWithoutResubmitFailsImmediately(t *testing.T) {
	env := newEnv(t)
	b := DefaultBase(env)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := &block.Request{ID: 1, Tenant: ten, Size: 4096, NSQ: -1}
	completions := 0
	rq.OnComplete = func(r *block.Request) { completions++ }
	b.handleCancel(rq)
	env.Eng.RunUntil(sim.Time(sim.Millisecond))
	if completions != 1 || rq.Err != ErrTerminal {
		t.Fatalf("completions=%d err=%v, want immediate terminal failure", completions, rq.Err)
	}
}

func TestRecoveryStatsSnapshot(t *testing.T) {
	b := DefaultBase(newEnv(t))
	b.Requeues, b.RetryAttempts, b.CancelRequeues, b.TerminalFailures = 1, 2, 3, 4
	got := b.RecoveryStats()
	want := RecoveryStats{Requeues: 1, RetryAttempts: 2, CancelRequeues: 3, TerminalFailures: 4}
	if got != want {
		t.Fatalf("RecoveryStats = %+v, want %+v", got, want)
	}
}
