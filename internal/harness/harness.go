// Package harness builds the evaluation: machine presets (SV-M, WS-M),
// stack construction, scenario helpers, and one experiment per paper figure
// and table. Each experiment returns typed rows and renders the same
// series/rows the paper reports.
package harness

import (
	"fmt"

	"daredevil/internal/blkmq"
	"daredevil/internal/blkswitch"
	"daredevil/internal/block"
	"daredevil/internal/core"
	"daredevil/internal/cpus"
	"daredevil/internal/fault"
	"daredevil/internal/ftl"
	"daredevil/internal/kyber"
	"daredevil/internal/nvme"
	"daredevil/internal/obs"
	"daredevil/internal/sim"
	"daredevil/internal/stackbase"
	"daredevil/internal/staticpart"
)

// StackKind names a storage-stack implementation.
type StackKind string

// Stack kinds.
const (
	Vanilla    StackKind = "vanilla"
	BlkSwitch  StackKind = "blk-switch"
	StaticPart StackKind = "static-part"
	DareBase   StackKind = "dare-base"
	DareSched  StackKind = "dare-sched"
	DareFull   StackKind = "daredevil"
)

// AllKinds lists every stack.
var AllKinds = []StackKind{Vanilla, BlkSwitch, StaticPart, DareBase, DareSched, DareFull}

// ComparisonKinds lists the paper's §7.1 comparison targets.
var ComparisonKinds = []StackKind{Vanilla, BlkSwitch, DareFull}

// Machine describes a testbed.
type Machine struct {
	Name  string
	Cores int
	NVMe  nvme.Config
	// FTL, when non-nil, layers a page-mapped translation layer with
	// garbage collection between the controller and the media (an aged
	// device). Nil keeps today's effective-latency flash model; both modes
	// are deterministic.
	FTL *ftl.Config
	// Fault, when non-nil, attaches a deterministic fault-injection
	// schedule (internal/fault) to the device — and to the FTL when one is
	// configured. NewEnv defaults NVMe.CmdTimeout to 30ms when the
	// schedule requires host recovery and the config leaves it unset.
	Fault *fault.Schedule
}

// SVM returns the server machine testbed (§7): the experiments use a 4-core
// (configurable) slice of the EPYC box with a PM1735-class SSD exposing 64
// NSQs and 64 NCQs at depth 1024.
func SVM(cores int) Machine {
	cfg := nvme.DefaultConfig()
	cfg.NumNSQ = 64
	cfg.NumNCQ = 64
	return Machine{Name: "SV-M", Cores: cores, NVMe: cfg}
}

// WSM returns the workstation testbed (§7 complimentary setup): 8 P-cores
// with a 980Pro-class SSD exposing 128 NSQs over 24 NCQs, so each NCQ has
// at least 5 NSQs attached.
func WSM() Machine {
	cfg := nvme.DefaultConfig()
	cfg.NumNSQ = 128
	cfg.NumNCQ = 24
	return Machine{Name: "WS-M", Cores: 8, NVMe: cfg}
}

// Env is a built machine + stack ready to run workloads.
type Env struct {
	Machine Machine
	Kind    StackKind
	Eng     *sim.Engine
	Pool    *cpus.Pool
	Dev     *nvme.Device
	Stack   block.Stack
	// FTL is the attached translation layer when Machine.FTL was set.
	FTL *ftl.Device
	// Fault is the cell's injector when Machine.Fault was set.
	Fault *fault.Injector
	// Obs is the cell's observer once EnableObs has been called; nil keeps
	// every hook on its disabled (nil-check) path.
	Obs *obs.Observer
}

// NewEnv constructs the simulated machine and the requested stack.
func NewEnv(m Machine, kind StackKind) *Env {
	if m.Fault != nil && m.NVMe.CmdTimeout == 0 {
		// Host recovery must be armed whenever faults are in play; 30ms is
		// far above any legitimate tail in the modeled device, so it only
		// catches genuinely lost commands.
		m.NVMe.CmdTimeout = 30 * sim.Millisecond
	}
	eng := sim.New()
	pool := cpus.NewPool(eng, m.Cores, cpus.DefaultConfig())
	dev := nvme.New(eng, pool, m.NVMe)
	e := &Env{Machine: m, Kind: kind, Eng: eng, Pool: pool, Dev: dev}
	if m.Fault != nil {
		e.Fault = fault.NewInjector(*m.Fault)
		dev.AttachFault(e.Fault)
	}
	if m.FTL != nil {
		e.FTL = ftl.New(eng, dev.Media(), *m.FTL)
		dev.AttachFTL(e.FTL)
		if e.Fault != nil {
			e.FTL.AttachFault(e.Fault)
		}
	}
	e.Stack = buildStack(kind, stackbase.Env{Eng: eng, Pool: pool, Dev: dev})
	return e
}

// RecoveryCounters aggregates the error-path counters of one cell: device
// media errors and escalations, host-side retry/requeue verdicts, and the
// injector's fault hits. All fields are comparable scalars so results stay
// ==-comparable for the determinism tests.
type RecoveryCounters struct {
	// Device: media errors and the timeout → abort → reset ladder.
	MediaErrors    uint64
	FailedCommands uint64
	Timeouts       uint64
	Aborts         uint64
	AbortRaces     uint64
	AbortFails     uint64
	Resets         uint64
	CancelledCmds  uint64
	ResetRejects   uint64
	// Host (stackbase): full-NSQ backoff and cancel-requeue verdicts.
	Requeues         uint64
	RetryAttempts    uint64
	CancelRequeues   uint64
	TerminalFailures uint64
	// Injected faults (zero when no schedule is attached).
	Faults fault.Counters
}

// recoveryStatser is implemented by every stack embedding stackbase.Base.
type recoveryStatser interface {
	RecoveryStats() stackbase.RecoveryStats
}

// Recovery snapshots the cell's error-path counters.
func (e *Env) Recovery() RecoveryCounters {
	rc := RecoveryCounters{
		MediaErrors:    e.Dev.MediaErrors,
		FailedCommands: e.Dev.FailedCommands,
		Timeouts:       e.Dev.Timeouts,
		Aborts:         e.Dev.Aborts,
		AbortRaces:     e.Dev.AbortRaces,
		AbortFails:     e.Dev.AbortFails,
		Resets:         e.Dev.Resets,
		CancelledCmds:  e.Dev.CancelledCmds,
		ResetRejects:   e.Dev.ResetRejects,
	}
	if rs, ok := e.Stack.(recoveryStatser); ok {
		s := rs.RecoveryStats()
		rc.Requeues = s.Requeues
		rc.RetryAttempts = s.RetryAttempts
		rc.CancelRequeues = s.CancelRequeues
		rc.TerminalFailures = s.TerminalFailures
	}
	if e.Fault != nil {
		rc.Faults = e.Fault.Hits
	}
	return rc
}

func buildStack(kind StackKind, env stackbase.Env) block.Stack {
	switch kind {
	case Vanilla:
		return blkmq.New(env)
	case BlkSwitch:
		return blkswitch.New(env, blkswitch.DefaultConfig())
	case StaticPart:
		// The §3.1 configuration: as many NQs as vanilla's core-NQ
		// bindings, split between classes.
		return staticpart.New(env, staticpart.SplitHalf, env.Pool.N())
	case DareBase:
		cfg := core.DefaultConfig()
		cfg.Level = core.LevelBase
		return core.New(env, cfg)
	case DareSched:
		cfg := core.DefaultConfig()
		cfg.Level = core.LevelSched
		return core.New(env, cfg)
	case DareFull:
		return core.New(env, core.DefaultConfig())
	case Kyber:
		return kyber.New(env, kyber.DefaultConfig())
	default:
		panic(fmt.Sprintf("harness: unknown stack kind %q", kind))
	}
}

// CreateNamespaces sets up n namespaces on the device (call before starting
// workloads).
func (e *Env) CreateNamespaces(n int) { e.Dev.CreateNamespaces(n) }

// Scale controls experiment durations. The paper runs minutes per phase;
// the simulation compresses each phase to a window that preserves queueing
// behavior (thousands of requests per tenant per window).
type Scale struct {
	Warmup  sim.Duration
	Measure sim.Duration
}

// DefaultScale is used by the CLI harness.
var DefaultScale = Scale{Warmup: 150 * sim.Millisecond, Measure: 600 * sim.Millisecond}

// QuickScale is used by tests and testing.B benchmarks.
var QuickScale = Scale{Warmup: 40 * sim.Millisecond, Measure: 160 * sim.Millisecond}
