package harness

import (
	"io"

	"daredevil/internal/obs"
	"daredevil/internal/plot"
	"daredevil/internal/prof"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
	"daredevil/internal/walltime"
	"daredevil/internal/workload"
)

// The cell API is the harness as a library: a CellSpec describes one
// simulation cell as plain data (machine, stack, tenant jobs, windows,
// observability switches), BuildCell materializes it, and Run returns a
// typed CellResult — no CLI flags, no stdout, no global state. The public
// daredevil.Simulation facade and the ddserve capacity-planning daemon are
// both thin layers over this type, so a spec that ran interactively and the
// same spec submitted to the service execute identical code and produce
// bit-identical results.

// CellSpec is a declarative, self-contained description of one simulation
// cell. Specs are plain data: hash one to key a result cache, ship one over
// HTTP, or fan a grid of them out over RunCells.
type CellSpec struct {
	// Machine is the testbed (cores, NVMe shape, optional FTL and fault
	// schedule).
	Machine Machine
	// Kind selects the storage stack.
	Kind StackKind
	// Namespaces divides the SSD when > 1.
	Namespaces int
	// Warmup and Measure are the run windows.
	Warmup  sim.Duration
	Measure sim.Duration
	// Jobs are the tenant workloads, added in order (order determines
	// tenant IDs and therefore the random streams — keep it stable).
	Jobs []workload.FIOConfig
	// Breakdown records L-tenant path components (lock wait, completion
	// delay, cross-core fraction).
	Breakdown bool
	// Trace arms request-lifecycle span capture and the flight recorder;
	// TraceLimit caps the spans (0 = default budget).
	Trace      bool
	TraceLimit int
	// MetricsWindow > 0 samples the standard gauge set at that cadence.
	MetricsWindow sim.Duration
	// Profile arms the streaming layer-attribution profiler: every
	// completed request of the measurement window feeds the per-layer
	// digests reported in CellResult.Profile.
	Profile bool
}

// AuxApp is a non-FIO load generator (KV store, mail server) hung off a
// cell: Start fires with the tenant jobs, Reset at the warmup boundary.
type AuxApp interface {
	Start(*Env)
	Reset()
}

// Cell is one buildable, runnable simulation cell.
type Cell struct {
	Env *Env
	Mix *Mix
	// Breakdown mirrors CellSpec.Breakdown; settable until Run.
	Breakdown bool
	// Aux apps start with the jobs and reset at the warmup boundary.
	Aux []AuxApp
	// Wall attributes host wall-clock time per run phase when profiling is
	// armed (host-dependent; excluded from byte-identity artifacts).
	Wall prof.WallProfile
	// start, when set, replaces Mix.StartAll: experiments with staged
	// tenant starts (fig8's rising T-pressure, fig13's TL-first order)
	// schedule their own.
	start func()
	prof  *prof.Profiler
	ran   bool
}

// NewCell builds an empty cell on the given machine and stack.
func NewCell(m Machine, kind StackKind) *Cell {
	env := NewEnv(m, kind)
	return &Cell{Env: env, Mix: NewMix(env)}
}

// BuildCell materializes a spec: machine, stack, namespaces, observability,
// and every job, in spec order.
func BuildCell(spec CellSpec) *Cell {
	c := NewCell(spec.Machine, spec.Kind)
	c.Breakdown = spec.Breakdown
	if spec.Trace {
		c.EnableTrace(spec.TraceLimit)
	}
	if spec.MetricsWindow > 0 {
		c.EnableMetrics(spec.MetricsWindow)
	}
	if spec.Profile {
		c.EnableProfile()
	}
	if spec.Namespaces > 1 {
		c.Env.CreateNamespaces(spec.Namespaces)
	}
	for _, cfg := range spec.Jobs {
		c.AddJob(cfg)
	}
	return c
}

// RunCellSpec builds the cell and runs its windows — the one-call
// spec-in/result-out API. Each call constructs a fresh engine, so
// concurrent calls (e.g. from the ddserve worker pool) cannot interact and
// repeated calls return identical results.
func RunCellSpec(spec CellSpec) CellResult {
	return BuildCell(spec).Run(spec.Warmup, spec.Measure)
}

// AddJob appends one tenant job. Job IDs are assigned from 1000 in add
// order (matching the historical public-API numbering, which seeds the
// tenants' random streams).
func (c *Cell) AddJob(cfg workload.FIOConfig) {
	c.Mix.addJob(1000+len(c.Mix.LJobs)+len(c.Mix.TJobs), cfg)
}

// EnableTrace arms span capture (and the flight recorder) for up to limit
// requests; limit <= 0 selects the default budget. Call before Run.
func (c *Cell) EnableTrace(limit int) {
	if limit <= 0 {
		limit = obs.DefaultTraceLimit
	}
	c.Env.EnableObs(limit, 0)
}

// EnableMetrics samples the standard gauge set every window of virtual
// time. Call before Run.
func (c *Cell) EnableMetrics(window sim.Duration) {
	if window <= 0 {
		panic("harness: EnableMetrics needs a positive window")
	}
	c.Env.EnableObs(0, window)
}

// EnableProfile arms the streaming virtual-time profiler: every completed
// request span feeds per-(stack, class, layer) latency digests, reported in
// CellResult.Profile after Run. Composes with tracing and metrics (spans
// are shared); idempotent. Call before Run.
func (c *Cell) EnableProfile() {
	if c.prof != nil {
		return
	}
	c.prof = prof.New(string(c.Env.Kind))
	c.Env.EnableObs(0, 0).EnableProfile(c.prof)
}

// Profiler returns the cell's armed profiler, or nil when profiling is off.
func (c *Cell) Profiler() *prof.Profiler { return c.prof }

// Ran reports whether the cell's Run already happened.
func (c *Cell) Ran() bool { return c.ran }

// Run starts every job and aux app, warms up, measures, and aggregates —
// the one warmup/measure loop in the harness. It may be called once per
// Cell; experiments that report more (goodput, fairness) read the cell's
// jobs afterwards.
func (c *Cell) Run(warmup, measure sim.Duration) CellResult {
	if c.ran {
		panic("harness: Cell.Run called twice; build a new Cell")
	}
	c.ran = true
	// Wall checkpoints for the self-profile: virtual time is free, so the
	// only host cost worth attributing is which run phase burned it. Only
	// metered when profiling is armed (walltime reads are off the hot path
	// either way — one per phase boundary).
	profiling := c.prof != nil
	var sw walltime.Stopwatch
	if profiling {
		sw = walltime.Start()
	}
	if c.Breakdown {
		for _, j := range c.Mix.LJobs {
			j.EnableComponents()
		}
	}
	if c.Env.Obs != nil {
		for _, j := range c.Mix.AllJobs() {
			j.Obs = c.Env.Obs
		}
		c.Env.Obs.Start()
	}
	if c.start != nil {
		c.start()
	} else {
		c.Mix.StartAll()
	}
	for _, a := range c.Aux {
		a.Start(c.Env)
	}
	if profiling {
		c.Wall.Add("start", int64(sw.Elapsed()))
		sw = walltime.Start()
	}
	c.Env.Eng.RunUntil(sim.Time(warmup))
	c.Mix.ResetStats()
	for _, a := range c.Aux {
		a.Reset()
	}
	if c.Env.FTL != nil {
		c.Env.FTL.ResetStats()
	}
	// Profiles cover exactly the measurement window.
	c.prof.Reset()
	if profiling {
		c.Wall.Add("warmup", int64(sw.Elapsed()))
		sw = walltime.Start()
	}
	c.Env.Eng.RunUntil(sim.Time(warmup + measure))
	if c.Env.Obs != nil {
		c.Env.Obs.Finish(sim.Time(warmup + measure))
	}
	if profiling {
		c.Wall.Add("measure", int64(sw.Elapsed()))
		sw = walltime.Start()
	}
	var l, t stats.Histogram
	for _, j := range c.Mix.LJobs {
		l.Merge(&j.Lat)
	}
	for _, j := range c.Mix.TJobs {
		t.Merge(&j.Lat)
	}
	lops, _ := windowTotals(c.Mix.LJobs)
	tops, _ := windowTotals(c.Mix.TJobs)
	res := CellResult{
		LTenantLatency:  l.Snapshot(),
		TTenantLatency:  t.Snapshot(),
		LTenantKIOPS:    lops.IOPS(measure) / 1000,
		TThroughputMBps: tops.MBps(measure),
		CPUUtilization:  c.Env.Pool.Utilization(sim.Duration(c.Env.Eng.Now())),
	}
	if c.Breakdown {
		var sub, comp stats.Histogram
		var cross, total uint64
		for _, j := range c.Mix.LJobs {
			sub.Merge(j.SubWait)
			comp.Merge(j.CompDelay)
			cross += j.CrossCore
			total += j.Done.Ops
		}
		res.LSubmissionWait = sub.Snapshot()
		res.LCompletionDelay = comp.Snapshot()
		if total > 0 {
			res.LCrossCoreFraction = float64(cross) / float64(total)
		}
	}
	if c.Env.FTL != nil {
		st := c.Env.FTL.Stats()
		res.FTL = &FTLSummary{
			WriteAmplification: st.WriteAmplification(),
			GCRuns:             st.GCRuns,
			GCPagesMoved:       st.GCPagesMoved,
			Erases:             st.Erases,
			ForegroundGCs:      st.ForegroundGCs,
			TrimmedPages:       st.TrimmedPages,
			GCPauses:           c.Env.FTL.GCPauses.Snapshot(),
		}
	}
	res.Recovery = c.Env.Recovery()
	if profiling {
		p := c.prof.Profile()
		res.Profile = &p
		c.Wall.Add("collect", int64(sw.Elapsed()))
	}
	return res
}

// WriteTraceTable renders collected request timelines as an aligned table
// with one column per latency layer. No-op unless tracing was armed.
func (c *Cell) WriteTraceTable(w io.Writer) error {
	if c.Env.Obs == nil || c.Env.Obs.Tracer() == nil {
		return nil
	}
	return c.Env.Obs.Tracer().WriteTable(w)
}

// WriteTraceJSON emits the collected trace as Chrome trace-event JSON
// (open at ui.perfetto.dev). No-op unless tracing was armed.
func (c *Cell) WriteTraceJSON(w io.Writer) error {
	if c.Env.Obs == nil || c.Env.Obs.Tracer() == nil {
		return nil
	}
	return c.Env.Obs.Tracer().WriteJSON(w)
}

// WriteMetricsCSV emits the sampled gauge series as a CSV matrix. No-op
// unless metrics sampling was armed.
func (c *Cell) WriteMetricsCSV(w io.Writer) error {
	if c.Env.Obs == nil || c.Env.Obs.Sampler() == nil {
		return nil
	}
	return c.Env.Obs.Sampler().WriteCSV(w)
}

// WriteMetricsJSON emits the sampled gauge series as JSON. No-op unless
// metrics sampling was armed.
func (c *Cell) WriteMetricsJSON(w io.Writer) error {
	if c.Env.Obs == nil || c.Env.Obs.Sampler() == nil {
		return nil
	}
	return c.Env.Obs.Sampler().WriteJSON(w)
}

// WriteMetricsSVG renders the sampled gauges as sparkline small multiples.
// No-op unless metrics sampling was armed.
func (c *Cell) WriteMetricsSVG(w io.Writer) error {
	if c.Env.Obs == nil || c.Env.Obs.Sampler() == nil {
		return nil
	}
	return plot.WriteMultiples(w, obsCharts(c.Env.Obs.Sampler()))
}

// WriteFlight renders the flight-recorder dumps captured when host recovery
// escalated. No-op when tracing was off or nothing escalated.
func (c *Cell) WriteFlight(w io.Writer) error {
	if c.Env.Obs == nil {
		return nil
	}
	return c.Env.Obs.Flight().WriteText(w)
}

// WriteProfileTable renders the cell's layer-latency breakdown as an
// aligned table. No-op unless profiling was armed.
func (c *Cell) WriteProfileTable(w io.Writer) error {
	if c.prof == nil {
		return nil
	}
	return c.prof.Profile().WriteBreakdownTable(w)
}

// WriteProfileFolded emits the breakdown in flame-graph folded-stack form.
// No-op unless profiling was armed.
func (c *Cell) WriteProfileFolded(w io.Writer) error {
	if c.prof == nil {
		return nil
	}
	return c.prof.Profile().WriteFoldedStacks(w)
}

// WriteProfileSVG renders the breakdown as 100%-stacked bars, one per
// (stack, class) group. No-op unless profiling was armed.
func (c *Cell) WriteProfileSVG(w io.Writer) error {
	if c.prof == nil {
		return nil
	}
	return breakdownChart(c.prof.Profile()).WriteSVG(w)
}

// WriteSelfProfile renders the wall-clock self-profile accumulated across
// the run phases. No-op unless profiling was armed.
func (c *Cell) WriteSelfProfile(w io.Writer) error {
	if c.prof == nil {
		return nil
	}
	return c.Wall.WriteText(w)
}

// FlightDumps reports how many recovery escalations captured a flight dump.
func (c *Cell) FlightDumps() int {
	if c.Env.Obs == nil {
		return 0
	}
	return len(c.Env.Obs.Flight().Dumps())
}

// CellResult aggregates one cell's measurement window. Field names mirror
// the public daredevil.Result, which aliases this type.
type CellResult struct {
	// LTenantLatency is the merged L-tenant latency distribution.
	LTenantLatency stats.Snapshot
	// TTenantLatency is the merged T-tenant latency distribution.
	TTenantLatency stats.Snapshot
	// LTenantKIOPS is the aggregate L-tenant rate in thousands of IOPS.
	LTenantKIOPS float64
	// TThroughputMBps is the aggregate T-tenant throughput.
	TThroughputMBps float64
	// CPUUtilization is the mean core utilization in [0,1].
	CPUUtilization float64

	// Breakdown components (populated when Breakdown was set):
	// LSubmissionWait is the L-tenants' NSQ lock wait distribution,
	// LCompletionDelay the CQE-post-to-delivery distribution, and
	// LCrossCoreFraction the share of L completions delivered via another
	// core's interrupt.
	LSubmissionWait    stats.Snapshot
	LCompletionDelay   stats.Snapshot
	LCrossCoreFraction float64

	// FTL reports device-internal activity over the window when the
	// machine ran with Machine.FTL set; nil otherwise.
	FTL *FTLSummary

	// Recovery reports error-path counters over the whole run (not just
	// the measurement window).
	Recovery RecoveryCounters

	// Profile is the per-layer latency attribution over the measurement
	// window when profiling was armed; nil otherwise. Plain mergeable
	// data: fold cells with prof.MergeAll / MergeCellProfiles. Omitted
	// from JSON when absent so unprofiled results keep their golden bytes.
	Profile *prof.Profile `json:",omitempty"`
}

// MergeCellProfiles folds the profiles of a grid's cells into one fleet
// profile, skipping unprofiled cells. The digest merge is commutative and
// associative, so the result is byte-identical no matter how the grid's
// cells were scheduled (-j1 vs -j8) — merge in index order for clarity, not
// correctness. ok reports whether any cell carried a profile.
func MergeCellProfiles(results []CellResult) (merged prof.Profile, ok bool) {
	for _, r := range results {
		if r.Profile == nil {
			continue
		}
		merged = prof.Merge(merged, *r.Profile)
		ok = true
	}
	return merged, ok
}

// FTLSummary summarizes the translation layer's work during a measurement
// window.
type FTLSummary struct {
	// WriteAmplification is flash pages written per host page written.
	WriteAmplification float64
	// GCRuns counts collected victim blocks; GCPagesMoved the valid pages
	// relocated; Erases the block erases.
	GCRuns       uint64
	GCPagesMoved uint64
	Erases       uint64
	// ForegroundGCs counts host writes that stalled for inline collection.
	ForegroundGCs uint64
	// TrimmedPages counts pages invalidated by NVMe Deallocate.
	TrimmedPages uint64
	// GCPauses is the distribution of per-victim collection times.
	GCPauses stats.Snapshot
}
