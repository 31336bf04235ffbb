package harness

import (
	"fmt"
	"io"

	"daredevil/internal/block"
	"daredevil/internal/fault"
	"daredevil/internal/ftl"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
)

// This file holds the ext-fault experiment: all six stacks against the same
// deterministic fault schedule, with full host-side recovery armed (command
// expiry → Abort → controller reset in internal/nvme, capped-backoff requeue
// in internal/stackbase). It probes graceful degradation: goodput and tail
// latency inside the fault window, how fast each stack drains the backlog
// once the window closes, and whether any request is dropped on the floor
// (the conservation invariant — every request completes or terminally
// fails, never hangs).

// FaultProfile names a canned fault schedule.
type FaultProfile string

// Fault profiles swept by ext-fault.
const (
	// FaultBrownout stalls a run of chips for the fault window: every
	// command dispatched to them is lost and only host expiry recovers it.
	FaultBrownout FaultProfile = "brownout"
	// FaultLossy drops and delays CQEs and pauses the controller's fetch
	// engine mid-window — transport-level misbehavior, no media damage.
	FaultLossy FaultProfile = "lossy"
	// FaultWearout ramps the read raw-bit-error rate across the window and
	// fails host programs, growing bad blocks in the FTL (runs aged, with
	// the translation layer attached).
	FaultWearout FaultProfile = "wearout"
)

// ExtFaultProfiles lists the profiles swept.
var ExtFaultProfiles = []FaultProfile{FaultBrownout, FaultLossy, FaultWearout}

// ExtFaultStacks are the stacks compared under faults.
var ExtFaultStacks = AllKinds

// DefaultFaultSeed keys the ext-fault experiment's fault RNG stream.
const DefaultFaultSeed uint64 = 42

// ExtFaultSchedule builds the named profile with its active window spanning
// [start, end) of virtual time. Seed keys the dedicated fault RNG stream.
func ExtFaultSchedule(profile FaultProfile, seed uint64, start, end sim.Duration) fault.Schedule {
	w := fault.Window{Start: start, End: end}
	s := fault.Schedule{Seed: seed}
	switch profile {
	case FaultBrownout:
		// 8 of the 128 chips (one channel's worth) go dark for the window.
		s.ChipStalls = []fault.ChipStall{{Window: w, FirstChip: 0, NumChips: 8}}
	case FaultLossy:
		s.DropCQEProb = 0.002
		s.LateCQEProb = 0.01
		s.LateCQEDelay = 200 * sim.Microsecond
		// One fetch-engine pause covering the first quarter of the window.
		s.Hiccups = []fault.Window{{Start: start, End: start + (end-start)/4}}
	case FaultWearout:
		s.ReadErrorRamp = fault.Ramp{Window: w, From: 0.01, To: 0.20}
		s.ProgramFailProb = 0.02
	default:
		panic(fmt.Sprintf("harness: unknown fault profile %q", profile))
	}
	return s
}

// ExtFaultCell is one (stack, profile) measurement under faults. Every field
// is a comparable scalar so cells stay ==-comparable for the -j1/-j8
// determinism tests.
type ExtFaultCell struct {
	Kind    StackKind
	Profile FaultProfile

	// Goodput over the measurement window: completions minus terminal
	// failures.
	LGoodKIOPS float64
	TGoodMBps  float64
	// FailedOps counts terminally failed requests (all tenants).
	FailedOps uint64

	// Tail latency of successful completions inside the fault window and
	// after it closes.
	InWinP99   sim.Duration
	InWinP999  sim.Duration
	PostWinP99 sim.Duration
	// RecoveryTime is how long after the window closes the last request
	// issued during it completes — the backlog drain time.
	RecoveryTime sim.Duration

	// Recovery aggregates the error-path counters (device escalations,
	// host requeues, injected faults).
	Recovery RecoveryCounters
}

// ExtFaultResult is the full sweep.
type ExtFaultResult struct {
	Seed  uint64
	Cells []ExtFaultCell
}

// RunExtFaultCell runs one stack under one fault profile: 4 L-tenants and 2
// T-tenants with the fault window spanning the second quarter of the
// measurement phase, so the window's onset, steady fault pressure, and the
// post-window recovery all land inside measurement. CmdTimeout scales with
// the phase (Measure/8 — half the window): lost commands expire twice inside
// the window, yet the deadline stays well above the device's legitimate tail
// at this tenant count, so healthy commands don't false-timeout into reset
// storms.
func RunExtFaultCell(kind StackKind, profile FaultProfile, seed uint64, sc Scale) ExtFaultCell {
	winStart := sc.Warmup + sc.Measure/4
	winEnd := sc.Warmup + sc.Measure/2

	m := SVM(4)
	sched := ExtFaultSchedule(profile, seed, winStart, winEnd)
	m.Fault = &sched
	m.NVMe.CmdTimeout = sc.Measure / 8
	if profile == FaultWearout {
		fcfg := ftl.DefaultConfig()
		m.FTL = &fcfg
	}

	c := NewCell(m, kind)
	c.Mix.AddL(4, 0)
	c.Mix.AddT(2, 0)

	var inWin, postWin stats.Histogram
	var recovery sim.Duration
	observe := func(r *block.Request) {
		if r.CompleteTime < sim.Time(sc.Warmup) || r.Err != nil {
			return
		}
		if r.CompleteTime < sim.Time(winEnd) {
			if r.CompleteTime >= sim.Time(winStart) {
				inWin.Record(r.Latency())
			}
			return
		}
		postWin.Record(r.Latency())
		if r.IssueTime < sim.Time(winEnd) {
			if d := r.CompleteTime.Sub(sim.Time(winEnd)); d > recovery {
				recovery = d
			}
		}
	}
	for _, j := range c.Mix.AllJobs() {
		j.Observer = observe
	}
	res := c.Run(sc.Warmup, sc.Measure)
	ldone, lfail := windowTotals(c.Mix.LJobs)
	tdone, tfail := windowTotals(c.Mix.TJobs)
	lgood := stats.Counter{Ops: ldone.Ops - lfail.Ops, Bytes: ldone.Bytes - lfail.Bytes}
	tgood := stats.Counter{Ops: tdone.Ops - tfail.Ops, Bytes: tdone.Bytes - tfail.Bytes}
	return ExtFaultCell{
		Kind: kind, Profile: profile,
		LGoodKIOPS:   lgood.IOPS(sc.Measure) / 1000,
		TGoodMBps:    tgood.MBps(sc.Measure),
		FailedOps:    lfail.Ops + tfail.Ops,
		InWinP99:     inWin.Quantile(0.99),
		InWinP999:    inWin.Quantile(0.999),
		PostWinP99:   postWin.Quantile(0.99),
		RecoveryTime: recovery,
		Recovery:     res.Recovery,
	}
}

// RunExtFault sweeps stacks x fault profiles under one seed.
func RunExtFault(seed uint64, sc Scale) ExtFaultResult {
	type spec struct {
		kind    StackKind
		profile FaultProfile
	}
	var specs []spec
	for _, kind := range ExtFaultStacks {
		for _, p := range ExtFaultProfiles {
			specs = append(specs, spec{kind, p})
		}
	}
	return ExtFaultResult{Seed: seed, Cells: RunCells(len(specs), func(i int) ExtFaultCell {
		s := specs[i]
		return RunExtFaultCell(s.kind, s.profile, seed, sc)
	})}
}

// WriteText renders the sweep.
func (r ExtFaultResult) WriteText(w io.Writer) {
	header(w, fmt.Sprintf("Extension: fault injection and host recovery (seed %d, 4 L + 2 T)", r.Seed))
	t := newTable(w)
	t.row("stack", "profile", "L good kIOPS", "T good MB/s", "failed",
		"in-win p99 (ms)", "in-win p99.9", "post p99", "recover (ms)",
		"timeouts", "aborts", "resets", "requeued", "terminal")
	for _, c := range r.Cells {
		t.row(string(c.Kind), string(c.Profile), f1(c.LGoodKIOPS), f1(c.TGoodMBps),
			u64(c.FailedOps), ms(c.InWinP99), ms(c.InWinP999), ms(c.PostWinP99),
			ms(c.RecoveryTime), u64(c.Recovery.Timeouts), u64(c.Recovery.Aborts),
			u64(c.Recovery.Resets), u64(c.Recovery.CancelRequeues),
			u64(c.Recovery.TerminalFailures))
	}
	t.flush()
	fmt.Fprintln(w, "\nThe fault window covers the second quarter of the measurement phase.")
	fmt.Fprintln(w, "Brownout losses surface as expiry timeouts and requeues; lossy CQEs add")
	fmt.Fprintln(w, "abort races and controller resets; wearout shows the FTL absorbing")
	fmt.Fprintln(w, "program failures as grown-bad blocks. Recovery time is how long the")
	fmt.Fprintln(w, "backlog from the window takes to drain after it closes.")
}

// Cell returns the (kind, profile) measurement, or false.
func (r ExtFaultResult) Cell(kind StackKind, profile FaultProfile) (ExtFaultCell, bool) {
	for _, c := range r.Cells {
		if c.Kind == kind && c.Profile == profile {
			return c, true
		}
	}
	return ExtFaultCell{}, false
}
