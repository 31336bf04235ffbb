// Package daredevil is the public API of the Daredevil reproduction: a
// deterministic simulation of the Linux NVMe storage stack and of Daredevil
// (EuroSys '25), the storage stack that decouples static core→NQ bindings
// for flexible multi-tenancy control.
//
// The library simulates an entire machine — CPU cores, the NVMe controller
// with its submission/completion queues, a flash backend — and runs one of
// several storage stacks on it:
//
//   - StackVanilla: Linux blk-mq with static per-core queue bindings.
//   - StackBlkSwitch: blk-switch-style cross-core scheduling.
//   - StackStaticPart: FlashShare/D2FQ-style static per-class NQs.
//   - StackDaredevil (and its dare-base / dare-sched ablations): the
//     paper's contribution.
//
// A minimal session:
//
//	sim := daredevil.NewSimulation(daredevil.ServerMachine(4), daredevil.StackDaredevil)
//	sim.AddLTenants(4)
//	sim.AddTTenants(16)
//	res := sim.Run(100*daredevil.Millisecond, 500*daredevil.Millisecond)
//	fmt.Println(res.LTenantLatency.P999, res.TThroughputMBps)
//
// The full evaluation harness behind cmd/ddbench is reachable through the
// Experiment helpers.
package daredevil

import (
	"encoding/json"
	"fmt"
	"io"

	"daredevil/internal/block"
	"daredevil/internal/fault"
	"daredevil/internal/ftl"
	"daredevil/internal/harness"
	"daredevil/internal/prof"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
	"daredevil/internal/workload"
)

// TenantClass is a tenant's ionice scheduling class.
type TenantClass = block.Class

// Tenant classes.
const (
	// ClassLatencySensitive marks L-tenants (real-time ionice).
	ClassLatencySensitive = block.ClassRT
	// ClassThroughputOriented marks T-tenants (best-effort ionice).
	ClassThroughputOriented = block.ClassBE
)

// Duration is virtual time in nanoseconds.
type Duration = sim.Duration

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// StackKind selects a storage-stack implementation.
type StackKind = harness.StackKind

// Available stacks.
const (
	StackVanilla    = harness.Vanilla
	StackBlkSwitch  = harness.BlkSwitch
	StackStaticPart = harness.StaticPart
	StackDareBase   = harness.DareBase
	StackDareSched  = harness.DareSched
	StackDaredevil  = harness.DareFull
)

// Machine describes the simulated testbed.
type Machine = harness.Machine

// ServerMachine returns the paper's SV-M testbed shape (PM1735-class SSD:
// 64 NSQs, 64 NCQs, depth 1024) with the given core count.
func ServerMachine(cores int) Machine { return harness.SVM(cores) }

// WorkstationMachine returns the paper's WS-M testbed shape (980Pro-class
// SSD: 128 NSQs over 24 NCQs, 8 cores).
func WorkstationMachine() Machine { return harness.WSM() }

// FTLConfig configures the optional page-mapped flash translation layer
// (garbage collection, wear leveling, TRIM). Assign one to Machine.FTL to
// run on an aged device; leave it nil for the default effective-latency
// flash model. Both modes are deterministic.
type FTLConfig = ftl.Config

// DefaultFTLConfig returns the paper-scale aged-device shape: a 4GiB
// device (128 dies x 128 blocks x 64 pages), 7% over-provisioning, greedy
// victim selection, preconditioned full and scrambled.
func DefaultFTLConfig() FTLConfig { return ftl.DefaultConfig() }

// FaultSchedule declares deterministic, seeded device faults (chip
// brownouts, controller hiccups, dropped/late CQEs, read-error ramps, grown
// bad blocks). Assign one to Machine.Fault to run under faults with host
// recovery armed; leave it nil for a healthy device.
type FaultSchedule = fault.Schedule

// RecoveryCounters aggregates error-path activity: device media errors, the
// timeout → abort → controller-reset ladder, host-side requeue verdicts, and
// injected fault hits. All zero on a healthy run.
type RecoveryCounters = harness.RecoveryCounters

// LatencySnapshot summarizes a latency distribution.
type LatencySnapshot = stats.Snapshot

// Result aggregates one measurement window: merged L-/T-tenant latency
// distributions, rates, CPU utilization, optional breakdown components and
// FTL activity, and the recovery counters. It aliases the harness cell
// result so library consumers (ddserve, the experiment grids) and this
// facade return the same typed value.
type Result = harness.CellResult

// FTLResult summarizes the translation layer's work during a measurement
// window.
type FTLResult = harness.FTLSummary

// JobConfig customizes a tenant workload (see DefaultLTenantConfig /
// DefaultTTenantConfig for the paper's shapes).
type JobConfig = workload.FIOConfig

// DefaultLTenantConfig is the paper's L-tenant: 4KB random reads, queue
// depth 1, real-time ionice.
func DefaultLTenantConfig(name string, core int) JobConfig {
	return workload.DefaultLTenant(name, core)
}

// DefaultTTenantConfig is the paper's T-tenant: 128KB streaming writes,
// queue depth 32, best-effort ionice.
func DefaultTTenantConfig(name string, core int) JobConfig {
	return workload.DefaultTTenant(name, core)
}

// Simulation is a configured machine + stack + tenant set — a facade over
// the harness cell API (harness.Cell) that adds the application workloads
// (YCSB-driven KV, mailserver).
type Simulation struct {
	cell *harness.Cell
}

// NewSimulation builds a simulated machine running the given stack.
func NewSimulation(m Machine, kind StackKind) *Simulation {
	return &Simulation{cell: harness.NewCell(m, kind)}
}

// StackName reports the active stack implementation's name.
func (s *Simulation) StackName() string { return s.cell.Env.Stack.Name() }

// CreateNamespaces divides the SSD into n namespaces (call before adding
// tenants that target them).
func (s *Simulation) CreateNamespaces(n int) { s.cell.Env.CreateNamespaces(n) }

// AddLTenants adds n paper-shaped L-tenants in namespace 0.
func (s *Simulation) AddLTenants(n int) { s.cell.Mix.AddL(n, 0) }

// AddTTenants adds n paper-shaped T-tenants in namespace 0.
func (s *Simulation) AddTTenants(n int) { s.cell.Mix.AddT(n, 0) }

// AddLTenantsNS / AddTTenantsNS place tenants in a specific namespace.
func (s *Simulation) AddLTenantsNS(n, ns int) { s.cell.Mix.AddL(n, ns) }

// AddTTenantsNS places n T-tenants in namespace ns.
func (s *Simulation) AddTTenantsNS(n, ns int) { s.cell.Mix.AddT(n, ns) }

// AddJob adds a fully custom tenant job.
func (s *Simulation) AddJob(cfg JobConfig) { s.cell.AddJob(cfg) }

// YCSBKind selects a YCSB workload mix (A, B, E, F).
type YCSBKind = workload.YCSBKind

// YCSB workload kinds.
const (
	YCSBA = workload.YCSBA
	YCSBB = workload.YCSBB
	YCSBE = workload.YCSBE
	YCSBF = workload.YCSBF
)

// OpType labels application operations.
type OpType = workload.OpType

// Application operation types.
const (
	OpRead   = workload.OpGet
	OpUpdate = workload.OpUpdate
	OpInsert = workload.OpInsert
	OpScan   = workload.OpScan
	OpRMW    = workload.OpRMW
	OpFsync  = workload.OpFsync
	OpDelete = workload.OpDelete
)

// KVApp is a RocksDB-like store driven by YCSB clients inside a Simulation:
// OpLatency reports per-operation latency since warmup, Ops the completed
// client operations.
type KVApp = harness.KVApp

// AddYCSB attaches a KV store (foreground on core, background flush thread
// on the next core) driven by the given number of YCSB clients. The app
// starts when Run is called.
func (s *Simulation) AddYCSB(kind YCSBKind, core, clients int) *KVApp {
	if clients <= 0 {
		panic("daredevil: AddYCSB needs at least one client")
	}
	app := harness.NewKVApp(kind, 5000+len(s.cell.Aux)*10, core,
		(core+1)%s.cell.Env.Pool.N(), clients, 71)
	s.cell.Aux = append(s.cell.Aux, app)
	return app
}

// MailApp is the Filebench-Mailserver workload inside a Simulation:
// OpLatency reports per-operation latency since warmup (OpFsync, OpDelete,
// or workload.OpCache).
type MailApp = harness.MailApp

// AddMailserver attaches the mailserver workload on the given core.
func (s *Simulation) AddMailserver(core int) *MailApp {
	app := harness.NewMailApp(6000+len(s.cell.Aux)*10, core)
	s.cell.Aux = append(s.cell.Aux, app)
	return app
}

// EnableTrace collects per-request lifecycle spans for up to limit requests
// (a default budget when limit <= 0) and arms the flight recorder. Call
// before Run; render afterwards with WriteTrace (phase table),
// WriteTraceJSON (Chrome trace-event / Perfetto timeline), or WriteFlight
// (recovery postmortems).
func (s *Simulation) EnableTrace(limit int) { s.cell.EnableTrace(limit) }

// EnableMetrics samples the machine's gauge set (queue depths, per-core
// busy/IRQ share, controller occupancy, FTL health, recovery deltas) every
// window of virtual time. Call before Run; export with WriteMetricsCSV or
// WriteMetricsJSON.
func (s *Simulation) EnableMetrics(window Duration) {
	if window <= 0 {
		panic("daredevil: EnableMetrics needs a positive window")
	}
	s.cell.EnableMetrics(window)
}

// WriteTrace renders collected request timelines as an aligned table with
// one column per latency layer (submit, queue_wait, fetch, chip, gc, cqe,
// delivery) plus the total. No-op unless EnableTrace was called.
func (s *Simulation) WriteTrace(w io.Writer) { s.cell.WriteTraceTable(w) }

// WriteTraceJSON emits the collected trace as Chrome trace-event JSON with
// one track per core, NSQ, chip, and GC die plus recovery instants — open
// it at ui.perfetto.dev or chrome://tracing. No-op unless EnableTrace was
// called.
func (s *Simulation) WriteTraceJSON(w io.Writer) error { return s.cell.WriteTraceJSON(w) }

// WriteMetricsCSV emits the sampled gauge series as a CSV matrix (first
// column window start in µs, one column per gauge). No-op unless
// EnableMetrics was called.
func (s *Simulation) WriteMetricsCSV(w io.Writer) error { return s.cell.WriteMetricsCSV(w) }

// WriteMetricsJSON emits the sampled gauge series as JSON. No-op unless
// EnableMetrics was called.
func (s *Simulation) WriteMetricsJSON(w io.Writer) error { return s.cell.WriteMetricsJSON(w) }

// WriteFlight renders the flight-recorder dumps captured when host
// recovery escalated (timeout/abort/reset): one block per escalation, the
// recent event stream of every component merged in deterministic order.
// No-op when tracing was off or nothing escalated.
func (s *Simulation) WriteFlight(w io.Writer) error { return s.cell.WriteFlight(w) }

// FlightDumps reports how many recovery escalations captured a flight dump.
func (s *Simulation) FlightDumps() int { return s.cell.FlightDumps() }

// EnableProfile streams every completed request through the virtual-time
// profiler: per (tenant-class, layer) latency digests over the fixed
// submit / queue-wait / fetch / chip / gc / cqe / delivery taxonomy,
// covering the measurement window. Call before Run; render afterwards
// with WriteProfile, WriteProfileFolded, or WriteProfileSVG, and inspect
// host-side cost with WriteSelfProfile. Unlike EnableTrace there is no
// span budget — the profiler aggregates every request at O(1) memory.
func (s *Simulation) EnableProfile() { s.cell.EnableProfile() }

// Profile snapshots the aggregated layer profile (empty before Run or when
// profiling is off). Profiles from different runs merge deterministically
// via prof.Merge.
func (s *Simulation) Profile() prof.Profile {
	if p := s.cell.Profiler(); p != nil {
		return p.Profile()
	}
	return prof.Profile{}
}

// WriteProfile renders the layer-latency breakdown table (share, mean,
// p50/p99/p99.9, max per layer). No-op unless EnableProfile was called.
func (s *Simulation) WriteProfile(w io.Writer) error { return s.cell.WriteProfileTable(w) }

// WriteProfileFolded emits the profile as folded stacks
// ("stack;class;layer ns"), ready for flamegraph.pl or speedscope. No-op
// unless EnableProfile was called.
func (s *Simulation) WriteProfileFolded(w io.Writer) error { return s.cell.WriteProfileFolded(w) }

// WriteProfileSVG renders the breakdown as 100%-stacked bars, one per group.
// No-op unless EnableProfile was called.
func (s *Simulation) WriteProfileSVG(w io.Writer) error { return s.cell.WriteProfileSVG(w) }

// WriteSelfProfile reports where the simulator spent host wall-clock time
// (build/warmup/measure/collect). No-op unless EnableProfile was called.
func (s *Simulation) WriteSelfProfile(w io.Writer) error { return s.cell.WriteSelfProfile(w) }

// EnableBreakdown records per-request path components for L-tenants
// (submission-side lock wait, completion delivery delay, cross-core
// fraction), exposed through the Result. Call before Run.
func (s *Simulation) EnableBreakdown() { s.cell.Breakdown = true }

// Run starts every tenant, warms up, measures, and aggregates. It may be
// called once per Simulation.
func (s *Simulation) Run(warmup, measure Duration) Result {
	if s.cell.Ran() {
		panic("daredevil: Simulation.Run called twice; build a new Simulation")
	}
	return s.cell.Run(warmup, measure)
}

// SetParallelism sets how many experiment cells the harness runs
// concurrently (default GOMAXPROCS). Each cell owns its own engine, so
// results are identical at any setting. n < 1 panics; CLIs validate user
// input before calling.
func SetParallelism(n int) { harness.SetParallelism(n) }

// Scale controls experiment durations for RunExperiment.
type Scale = harness.Scale

// Predefined scales.
var (
	DefaultScale = harness.DefaultScale
	QuickScale   = harness.QuickScale
)

// ExperimentNames lists the reproducible paper artifacts plus the
// extension experiments (Kyber baseline, WRR arbitration, polled
// completion, §8.1 virtio, §1 web app, aged-device GC, fault injection).
func ExperimentNames() []string { return harness.ExperimentNames() }

// DefaultFaultSeed keys the ext-fault experiment's fault RNG stream.
const DefaultFaultSeed = harness.DefaultFaultSeed

// RunExperimentJSON regenerates one paper table/figure and returns its
// result as JSON — the programmatic counterpart of RunExperiment for
// consumers that post-process results.
func RunExperimentJSON(name string, sc Scale) ([]byte, error) {
	e, err := lookupExperiment(name)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(e.Run(sc), "", "  ")
}

// RunExperiment regenerates one paper table/figure, writing its rows to w.
func RunExperiment(w io.Writer, name string, sc Scale) error {
	e, err := lookupExperiment(name)
	if err != nil {
		return err
	}
	e.Run(sc).WriteText(w)
	return nil
}

func lookupExperiment(name string) (harness.Experiment, error) {
	e, ok := harness.LookupExperiment(name)
	if !ok {
		return e, fmt.Errorf("daredevil: unknown experiment %q", name)
	}
	return e, nil
}
