package harness

import (
	"fmt"
	"io"
	"strconv"

	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// Fig13Cell is one cross-core overhead measurement (§7.5).
type Fig13Cell struct {
	Kind StackKind
	// Fixed reports whether the TL count was fixed (varying L) or the L
	// count was fixed (varying TL).
	Fixed   string // "TL" or "L"
	LCount  int
	TLCount int
	// Avg is the overall L-tenant average latency.
	Avg sim.Duration
	// Std is the standard-deviation proxy (p90-p50 spread).
	Std sim.Duration
	// SubWait is the mean submission-side NSQ lock wait per L-request.
	SubWait sim.Duration
	// CompDelay is the mean CQE-post-to-delivery time per L-request.
	CompDelay sim.Duration
	// CrossCoreFrac is the fraction of L completions delivered cross-core.
	CrossCoreFrac float64
}

// Fig13Result reproduces Figure 13: overheads of cross-core NQ accesses
// under TL-tenants (throughput-shaped tenants given L priority so they
// share the L-tenants' NQs).
type Fig13Result struct {
	Cells []Fig13Cell
}

// fig13Machine confines the experiment to 4 cores and 16 NQs as §7.5 does.
func fig13Machine() Machine {
	m := SVM(4)
	m.NVMe.NumNSQ = 16
	m.NVMe.NumNCQ = 16
	return m
}

// RunFig13 measures both directions: fixed 12 TL-tenants with varying
// L-tenants, and fixed 12 L-tenants with varying TL-tenants. Daredevil runs
// are interleaved by randomly migrating tenants across cores.
func RunFig13(sc Scale) Fig13Result {
	type spec struct {
		kind    StackKind
		nL, nTL int
		fixed   string
	}
	counts := []int{4, 8, 12, 16}
	var specs []spec
	for _, kind := range []StackKind{Vanilla, DareFull} {
		for _, n := range counts {
			specs = append(specs, spec{kind, n, 12, "TL"})
		}
		for _, n := range counts {
			specs = append(specs, spec{kind, 12, n, "L"})
		}
	}
	return Fig13Result{Cells: RunCells(len(specs), func(i int) Fig13Cell {
		s := specs[i]
		return runFig13Cell(s.kind, s.nL, s.nTL, s.fixed, sc)
	})}
}

func runFig13Cell(kind StackKind, nL, nTL int, fixed string, sc Scale) Fig13Cell {
	c := NewCell(fig13Machine(), kind)
	c.Breakdown = true
	mix := c.Mix
	mix.AddL(nL, 0)
	mix.AddTL(nTL, 0)
	// TL-tenants start first so Daredevil's NQ scheduling sees their load
	// when assigning default NSQs to the L-tenants joining afterwards.
	c.start = func() {
		mix.start(mix.TJobs)
		mix.startAt(sim.Time(sc.Warmup/2), mix.LJobs)
	}
	if kind == DareFull {
		// Interleave NQ accesses: move tenants across cores randomly so
		// each NQ is accessed by multiple cores (§7.5).
		c.Aux = append(c.Aux, startHook(func(env *Env) {
			workload.StartMigrator(env.Eng, env.Stack, mix.Tenants(), env.Pool.N(),
				2*sim.Millisecond, sim.Time(sc.Warmup+sc.Measure), 99)
		}))
	}
	r := c.Run(sc.Warmup, sc.Measure)
	return Fig13Cell{
		Kind: kind, Fixed: fixed, LCount: nL, TLCount: nTL,
		Avg:           r.LTenantLatency.Mean,
		Std:           r.LTenantLatency.P90 - r.LTenantLatency.P50,
		SubWait:       r.LSubmissionWait.Mean,
		CompDelay:     r.LCompletionDelay.Mean,
		CrossCoreFrac: r.LCrossCoreFraction,
	}
}

// WriteText renders the four panels.
func (r Fig13Result) WriteText(w io.Writer) {
	header(w, "Figure 13: cross-core NQ access overheads (TL-tenants share L NQs)")
	t := newTable(w)
	t.row("stack", "fixed", "L", "TL", "avg (ms)", "spread (ms)", "sub-wait (µs)", "comp-delay (µs)", "cross-core")
	for _, c := range r.Cells {
		t.row(string(c.Kind), c.Fixed,
			strconv.Itoa(c.LCount), strconv.Itoa(c.TLCount),
			ms(c.Avg), ms(c.Std), us(c.SubWait), us(c.CompDelay),
			fmt.Sprintf("%.0f%%", 100*c.CrossCoreFrac))
	}
	t.flush()
}

// Cell returns the measurement for (kind, fixed, nL, nTL), or false.
func (r Fig13Result) Cell(kind StackKind, fixed string, nL, nTL int) (Fig13Cell, bool) {
	for _, c := range r.Cells {
		if c.Kind == kind && c.Fixed == fixed && c.LCount == nL && c.TLCount == nTL {
			return c, true
		}
	}
	return Fig13Cell{}, false
}
