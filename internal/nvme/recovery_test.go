package nvme

import (
	"testing"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/fault"
	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

// allChipsDown stalls every chip for the whole run (the acceptance
// scenario: a brownout that never clears).
func allChipsDown() fault.Schedule {
	return fault.Schedule{ChipStalls: []fault.ChipStall{{
		Window:   fault.Window{Start: 0, End: sim.Duration(1) << 50},
		NumChips: 1 << 20,
	}}}
}

func newRecoveryDevice(t *testing.T, s fault.Schedule, mutate func(*Config)) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.New()
	pool := cpus.NewPool(eng, 1, cpus.Config{})
	cfg := testConfig()
	cfg.CmdTimeout = 500 * sim.Microsecond
	if mutate != nil {
		mutate(&cfg)
	}
	d := New(eng, pool, cfg)
	d.AttachFault(fault.NewInjector(s))
	return eng, d
}

func TestLostCommandCancelsWithoutHandler(t *testing.T) {
	eng, d := newRecoveryDevice(t, allChipsDown(), nil)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := mkReq(1, ten, 4096, block.OpRead)
	completions := 0
	rq.OnComplete = func(r *block.Request) { completions++ }
	if ok, _ := d.Enqueue(eng.Now(), 0, rq, true); !ok {
		t.Fatal("enqueue rejected")
	}
	eng.Run()
	if completions != 1 {
		t.Fatalf("request completed %d times, want exactly 1", completions)
	}
	if rq.Err != ErrCancelled {
		t.Fatalf("Err = %v, want ErrCancelled", rq.Err)
	}
	if d.Timeouts != 1 || d.Aborts != 1 || d.CancelledCmds != 1 {
		t.Fatalf("timeouts=%d aborts=%d cancelled=%d, want 1/1/1",
			d.Timeouts, d.Aborts, d.CancelledCmds)
	}
	if d.Resets != 0 || d.AbortFails != 0 {
		t.Fatalf("lost command must abort cleanly, not reset (resets=%d escalations=%d)",
			d.Resets, d.AbortFails)
	}
	if got := sim.Duration(rq.CompleteTime); got < d.cfg.CmdTimeout {
		t.Fatalf("cancelled at %v, before the %v expiry", got, d.cfg.CmdTimeout)
	}
}

func TestLostCommandRequeuedAfterBrownout(t *testing.T) {
	// Chips stall for 2ms; the host expires the lost command at 500µs,
	// requeues it, and the retry succeeds once the window closes.
	s := fault.Schedule{ChipStalls: []fault.ChipStall{{
		Window:   fault.Window{Start: 0, End: 2 * sim.Millisecond},
		NumChips: 1 << 20,
	}}}
	eng, d := newRecoveryDevice(t, s, nil)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := mkReq(1, ten, 4096, block.OpRead)
	completions, requeues := 0, 0
	rq.OnComplete = func(r *block.Request) { completions++ }
	d.SetCancelHandler(func(r *block.Request) {
		requeues++
		eng.After(10*sim.Microsecond, func() {
			d.Enqueue(eng.Now(), 0, r, true)
		})
	})
	d.Enqueue(eng.Now(), 0, rq, true)
	eng.Run()
	if completions != 1 {
		t.Fatalf("request completed %d times, want exactly 1", completions)
	}
	if rq.Err != nil {
		t.Fatalf("recovered request has Err = %v, want nil", rq.Err)
	}
	if requeues == 0 {
		t.Fatal("cancel handler never invoked")
	}
	if got := sim.Duration(rq.CompleteTime); got < 2*sim.Millisecond {
		t.Fatalf("completed at %v, inside the stall window", got)
	}
}

func TestLateCQEBeyondTimeoutEscalatesToReset(t *testing.T) {
	// CQEs delayed far past CmdTimeout: the abort finds a genuinely
	// executing command and escalates to a controller reset.
	s := fault.Schedule{LateCQEProb: 0.99, LateCQEDelay: 5 * sim.Millisecond}
	eng, d := newRecoveryDevice(t, s, nil)
	ten := &block.Tenant{ID: 1, Core: 0}
	const n = 10
	done := map[*block.Request]int{}
	for i := 0; i < n; i++ {
		rq := mkReq(uint64(i), ten, 4096, block.OpRead)
		rq.Offset = int64(i) * 4096
		rq.OnComplete = func(r *block.Request) { done[r]++ }
		if ok, _ := d.Enqueue(eng.Now(), i%d.NumNSQ(), rq, true); !ok {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	eng.Run()
	if len(done) != n {
		t.Fatalf("%d of %d requests completed", len(done), n)
	}
	for rq, c := range done {
		if c != 1 {
			t.Fatalf("request %d completed %d times", rq.ID, c)
		}
	}
	if d.AbortFails == 0 || d.Resets == 0 {
		t.Fatalf("want escalation to reset (escalations=%d resets=%d)", d.AbortFails, d.Resets)
	}
	if d.Fault().Hits.LateCQEs == 0 {
		t.Fatal("no late CQEs injected")
	}
}

func TestAbortRaceWhenCompletionWins(t *testing.T) {
	// Expiry fires just before the media completes; the completion beats
	// the slow Abort, which lands as a benign race — no cancel, no reset.
	s := fault.Schedule{} // no faults: the tight timeout does the work
	eng, d := newRecoveryDevice(t, s, func(cfg *Config) {
		cfg.CmdTimeout = 60 * sim.Microsecond // read service is ~75µs
		cfg.AbortCost = 200 * sim.Microsecond
	})
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := mkReq(1, ten, 4096, block.OpRead)
	completions := 0
	rq.OnComplete = func(r *block.Request) { completions++ }
	d.Enqueue(eng.Now(), 0, rq, true)
	eng.Run()
	if completions != 1 || rq.Err != nil {
		t.Fatalf("completions=%d err=%v, want 1/nil", completions, rq.Err)
	}
	if d.Timeouts != 1 || d.AbortRaces != 1 {
		t.Fatalf("timeouts=%d races=%d, want 1/1", d.Timeouts, d.AbortRaces)
	}
	if d.Resets != 0 || d.CancelledCmds != 0 {
		t.Fatalf("benign race must not cancel or reset (resets=%d cancelled=%d)",
			d.Resets, d.CancelledCmds)
	}
}

func TestResetRejectsEnqueuesUntilReinit(t *testing.T) {
	eng, d := newRecoveryDevice(t, fault.Schedule{}, nil)
	ten := &block.Tenant{ID: 1, Core: 0}
	d.controllerReset()
	if !d.Resetting() {
		t.Fatal("device not resetting")
	}
	rq := mkReq(1, ten, 4096, block.OpRead)
	rq.OnComplete = func(r *block.Request) {}
	if ok, _ := d.Enqueue(eng.Now(), 0, rq, true); ok {
		t.Fatal("enqueue accepted during reset")
	}
	if d.ResetRejects != 1 {
		t.Fatalf("ResetRejects = %d, want 1", d.ResetRejects)
	}
	eng.Run() // re-init completes
	if d.Resetting() {
		t.Fatal("reset never finished")
	}
	completions := 0
	rq.OnComplete = func(r *block.Request) { completions++ }
	if ok, _ := d.Enqueue(eng.Now(), 0, rq, true); !ok {
		t.Fatal("enqueue rejected after re-init")
	}
	eng.Run()
	if completions != 1 || rq.Err != nil {
		t.Fatalf("completions=%d err=%v after re-init, want 1/nil", completions, rq.Err)
	}
}

func TestResetSweepsQueuedAndInflight(t *testing.T) {
	// Load the device, then reset mid-flight: every outstanding request
	// must come back exactly once, none may linger.
	eng, d := newRecoveryDevice(t, fault.Schedule{}, nil)
	ten := &block.Tenant{ID: 1, Core: 0}
	const n = 32
	done := map[*block.Request]int{}
	for i := 0; i < n; i++ {
		rq := mkReq(uint64(i), ten, 4096, block.OpWrite)
		rq.Offset = int64(i) * 4096
		rq.OnComplete = func(r *block.Request) { done[r]++ }
		d.Enqueue(eng.Now(), i%d.NumNSQ(), rq, true)
	}
	eng.RunUntil(eng.Now().Add(100 * sim.Microsecond)) // some fetched, some queued
	d.controllerReset()
	eng.Run()
	if len(done) != n {
		t.Fatalf("%d of %d requests completed after reset", len(done), n)
	}
	for rq, c := range done {
		if c != 1 {
			t.Fatalf("request %d completed %d times", rq.ID, c)
		}
	}
	if d.CancelledCmds == 0 {
		t.Fatal("reset cancelled nothing")
	}
}

func TestHiccupPausesFetch(t *testing.T) {
	s := fault.Schedule{Hiccups: []fault.Window{{Start: 0, End: 300 * sim.Microsecond}}}
	eng, d := newRecoveryDevice(t, s, nil)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := mkReq(1, ten, 4096, block.OpRead)
	completions := 0
	rq.OnComplete = func(r *block.Request) { completions++ }
	rq.Span = &obs.Span{}
	d.Enqueue(eng.Now(), 0, rq, true)
	eng.Run()
	if completions != 1 || rq.Err != nil {
		t.Fatalf("completions=%d err=%v, want 1/nil", completions, rq.Err)
	}
	if got := sim.Duration(rq.Span.Fetch); got < 300*sim.Microsecond {
		t.Fatalf("fetched at %v, inside the hiccup window", got)
	}
}

func TestWholeRunStallTerminatesWithBoundedRequeues(t *testing.T) {
	// The acceptance scenario: chips stalled the entire run. A stackbase-
	// style handler requeues up to 3 times then fails terminally — the
	// simulation must drain with the request ending exactly once.
	eng, d := newRecoveryDevice(t, allChipsDown(), nil)
	ten := &block.Tenant{ID: 1, Core: 0}
	rq := mkReq(1, ten, 4096, block.OpRead)
	completions := 0
	rq.OnComplete = func(r *block.Request) { completions++ }
	d.SetCancelHandler(func(r *block.Request) {
		r.Requeues++
		if r.Requeues > 3 {
			r.Err = ErrCancelled
			r.Complete(eng.Now())
			return
		}
		eng.After(10*sim.Microsecond, func() {
			d.Enqueue(eng.Now(), 0, r, true)
		})
	})
	d.Enqueue(eng.Now(), 0, rq, true)
	eng.Run()
	if completions != 1 {
		t.Fatalf("request completed %d times, want exactly 1", completions)
	}
	if rq.Err == nil {
		t.Fatal("request against a dead device must fail terminally")
	}
	if d.Timeouts != 4 { // initial attempt + 3 requeues
		t.Fatalf("Timeouts = %d, want 4", d.Timeouts)
	}
}

func TestAttachFaultPanicsOnLossyScheduleWithoutTimeout(t *testing.T) {
	eng := sim.New()
	pool := cpus.NewPool(eng, 1, cpus.Config{})
	d := New(eng, pool, testConfig()) // CmdTimeout zero
	defer func() {
		if recover() == nil {
			t.Fatal("AttachFault must panic: lost commands with no expiry hang forever")
		}
	}()
	d.AttachFault(fault.NewInjector(allChipsDown()))
}

func TestCmdTimeoutValidation(t *testing.T) {
	cfg := testConfig()
	cfg.CmdTimeout = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative CmdTimeout must be invalid")
	}
	cfg = testConfig()
	cfg.CmdTimeout = sim.Millisecond
	cfg.AbortCost = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative AbortCost must be invalid")
	}
}
