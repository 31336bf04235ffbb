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

// windowTotals sums jobs' completions and terminal failures over the
// measurement window (failed requests complete too, so failed is a subset
// of done).
func windowTotals(jobs []*workload.Job) (done, failed stats.Counter) {
	for _, j := range jobs {
		done.Ops += j.Done.Ops
		done.Bytes += j.Done.Bytes
		failed.Ops += j.Failed.Ops
		failed.Bytes += j.Failed.Bytes
	}
	return done, failed
}

// RunMixGrid runs RunMixOnce for every (kind, tCount) pair on the
// experiment runner and returns results in kinds-major order: cell
// (ki, ti) lands at index ki*len(tCounts)+ti. Each cell owns its engine,
// so the grid fans out over Parallelism() workers with output identical
// to a serial sweep.
func RunMixGrid(machine Machine, kinds []StackKind, nL int, tCounts []int, sc Scale) []CellResult {
	return RunCells(len(kinds)*len(tCounts), func(i int) CellResult {
		kind := kinds[i/len(tCounts)]
		n := tCounts[i%len(tCounts)]
		return RunMixOnce(machine, kind, nL, n, sc)
	})
}

// RunMixOnce builds a mix of nL/nT tenants in namespace 0, runs
// warmup+measure, and aggregates — the basic cell of Figures 6, 7, 9.
func RunMixOnce(machine Machine, kind StackKind, nL, nT int, sc Scale) CellResult {
	c := NewCell(machine, kind)
	c.Mix.AddL(nL, 0)
	c.Mix.AddT(nT, 0)
	return c.Run(sc.Warmup, sc.Measure)
}
