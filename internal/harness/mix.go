package harness

import (
	"daredevil/internal/block"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
	"daredevil/internal/workload"
)

// tenantIDs hands out unique tenant IDs per Env run.
type idGen struct{ next int }

func (g *idGen) get() int { g.next++; return g.next }

// Mix is a set of L- and T-tenant FIO jobs on an Env.
type Mix struct {
	Env   *Env
	LJobs []*workload.Job
	TJobs []*workload.Job
	// SeedShift perturbs every subsequently added job's random stream —
	// set it before AddL/AddT/AddTL to re-run an experiment with fresh
	// draws.
	SeedShift uint64
	ids       idGen
}

// NewMix prepares an empty mix.
func NewMix(env *Env) *Mix { return &Mix{Env: env} }

// AddL adds n L-tenants (4KB rand qd=1, real-time ionice) in namespace ns,
// spread round-robin over the cores.
func (m *Mix) AddL(n, ns int) {
	for i := 0; i < n; i++ {
		cfg := workload.DefaultLTenant("fio-L", len(m.LJobs)%m.Env.Pool.N())
		cfg.Namespace = ns
		cfg.Seed += m.SeedShift
		m.LJobs = append(m.LJobs, workload.NewJob(m.ids.get(), cfg))
	}
}

// AddT adds n T-tenants (128KB qd=32, best-effort ionice) in namespace ns.
func (m *Mix) AddT(n, ns int) {
	for i := 0; i < n; i++ {
		cfg := workload.DefaultTTenant("fio-T", len(m.TJobs)%m.Env.Pool.N())
		cfg.Namespace = ns
		cfg.Seed += m.SeedShift
		m.TJobs = append(m.TJobs, workload.NewJob(m.ids.get(), cfg))
	}
}

// AddTL adds n throughput-shaped tenants with *real-time* ionice — the
// §7.5 TL-tenants that share NQs with L-tenants to stress cross-core
// overheads.
func (m *Mix) AddTL(n, ns int) {
	for i := 0; i < n; i++ {
		cfg := workload.DefaultTTenant("fio-TL", len(m.TJobs)%m.Env.Pool.N())
		cfg.Class = block.ClassRT
		cfg.Namespace = ns
		cfg.Seed += m.SeedShift
		m.TJobs = append(m.TJobs, workload.NewJob(m.ids.get(), cfg))
	}
}

// addJob appends a job with an explicit tenant ID: real-time jobs join the
// L-jobs, the rest the T-jobs.
func (m *Mix) addJob(id int, cfg workload.FIOConfig) {
	job := workload.NewJob(id, cfg)
	if cfg.Class == block.ClassRT {
		m.LJobs = append(m.LJobs, job)
	} else {
		m.TJobs = append(m.TJobs, job)
	}
}

// StartAll starts every job.
func (m *Mix) StartAll() { m.start(m.AllJobs()) }

// start starts jobs now, in order.
func (m *Mix) start(jobs []*workload.Job) {
	for _, j := range jobs {
		j.Start(m.Env.Eng, m.Env.Pool, m.Env.Stack)
	}
}

// startAt starts jobs at instant at.
func (m *Mix) startAt(at sim.Time, jobs []*workload.Job) {
	m.Env.Eng.At(at, func() { m.start(jobs) })
}

// AllJobs returns L-jobs then T-jobs.
func (m *Mix) AllJobs() []*workload.Job {
	all := make([]*workload.Job, 0, len(m.LJobs)+len(m.TJobs))
	all = append(all, m.LJobs...)
	return append(all, m.TJobs...)
}

// Tenants returns all tenants in the mix.
func (m *Mix) Tenants() []*block.Tenant {
	var ts []*block.Tenant
	for _, j := range m.AllJobs() {
		ts = append(ts, j.Tenant)
	}
	return ts
}

// ResetStats clears every job's measurement state (after warmup).
func (m *Mix) ResetStats() {
	for _, j := range m.AllJobs() {
		j.ResetStats()
	}
}

// MixResult aggregates one measurement window.
type MixResult struct {
	// L-tenant latency distribution (merged over L jobs).
	L stats.Snapshot
	// T-tenant latency distribution.
	T stats.Snapshot
	// LKIOPS is aggregate L-tenant thousands of IOPS.
	LKIOPS float64
	// TMBps is aggregate T-tenant throughput.
	TMBps float64
	// CPUUtil is the mean core utilization over the window.
	CPUUtil float64
	// LFairness is Jain's index over per-L-tenant completion counts (1 =
	// every L-tenant served equally).
	LFairness float64
	// LGoodKIOPS and TGoodMBps are the goodput — completions minus
	// terminally failed requests. Without faults they equal LKIOPS/TMBps.
	LGoodKIOPS float64
	TGoodMBps  float64
	// LFailedOps and TFailedOps count terminally failed requests.
	LFailedOps uint64
	TFailedOps uint64
}

// Collect aggregates job stats over a window of length measured.
func (m *Mix) Collect(measured sim.Duration) MixResult {
	var l, t stats.Histogram
	var lops, tops, lfail, tfail stats.Counter
	for _, j := range m.LJobs {
		l.Merge(&j.Lat)
		lops.Ops += j.Done.Ops
		lops.Bytes += j.Done.Bytes
		lfail.Ops += j.Failed.Ops
		lfail.Bytes += j.Failed.Bytes
	}
	for _, j := range m.TJobs {
		t.Merge(&j.Lat)
		tops.Ops += j.Done.Ops
		tops.Bytes += j.Done.Bytes
		tfail.Ops += j.Failed.Ops
		tfail.Bytes += j.Failed.Bytes
	}
	lgood := stats.Counter{Ops: lops.Ops - lfail.Ops, Bytes: lops.Bytes - lfail.Bytes}
	tgood := stats.Counter{Ops: tops.Ops - tfail.Ops, Bytes: tops.Bytes - tfail.Bytes}
	var perL []float64
	for _, j := range m.LJobs {
		perL = append(perL, float64(j.Done.Ops))
	}
	return MixResult{
		L:          l.Snapshot(),
		T:          t.Snapshot(),
		LKIOPS:     lops.IOPS(measured) / 1000,
		TMBps:      tops.MBps(measured),
		CPUUtil:    m.Env.Pool.Utilization(sim.Duration(m.Env.Eng.Now())),
		LFairness:  stats.JainIndex(perL),
		LGoodKIOPS: lgood.IOPS(measured) / 1000,
		TGoodMBps:  tgood.MBps(measured),
		LFailedOps: lfail.Ops,
		TFailedOps: tfail.Ops,
	}
}

// RunMixGrid runs RunMixOnce for every (kind, tCount) pair on the
// experiment runner and returns results in kinds-major order: cell
// (ki, ti) lands at index ki*len(tCounts)+ti. Each cell owns its engine,
// so the grid fans out over Parallelism() workers with output identical
// to a serial sweep.
func RunMixGrid(machine Machine, kinds []StackKind, nL int, tCounts []int, sc Scale) []MixResult {
	return RunCells(len(kinds)*len(tCounts), func(i int) MixResult {
		kind := kinds[i/len(tCounts)]
		n := tCounts[i%len(tCounts)]
		return RunMixOnce(machine, kind, nL, n, sc)
	})
}

// RunMixOnce builds a mix of nL/nT tenants in namespace 0, runs
// warmup+measure, and aggregates — the basic cell of Figures 6, 7, 9.
func RunMixOnce(machine Machine, kind StackKind, nL, nT int, sc Scale) MixResult {
	c := NewCell(machine, kind)
	c.Mix.AddL(nL, 0)
	c.Mix.AddT(nT, 0)
	_, r := c.run(sc.Warmup, sc.Measure)
	return r
}
