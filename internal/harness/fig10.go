package harness

import (
	"io"
	"strconv"

	"daredevil/internal/sim"
)

// NamespaceCounts is the §7.2 sweep.
var NamespaceCounts = []int{4, 8, 12}

// Fig10Cell is one (stack, namespace-count) measurement.
type Fig10Cell struct {
	Kind       StackKind
	Namespaces int
	LTenants   int
	TTenants   int
	Tail       sim.Duration
	Avg        sim.Duration
	TMBps      float64
	// LOps counts L completions in the window; zero means total blockage.
	LOps uint64
}

// Fig10Result reproduces Figure 10: multi-namespace scenarios where each
// namespace hosts only L- or T-tenants, yet the multi-tenancy issue
// persists because namespaces share the NQ set (§3.2, Figure 3c).
type Fig10Result struct {
	Cells []Fig10Cell
}

// RunMultiNS runs one multi-namespace cell: nsCount namespaces at a 1:3
// L:T ratio, 2 L-tenants per L-ns and 8 T-tenants per T-ns, on 4 cores.
func RunMultiNS(kind StackKind, nsCount int, sc Scale) Fig10Cell {
	c := NewCell(SVM(4), kind)
	c.Env.CreateNamespaces(nsCount)
	lNS := nsCount / 4
	if lNS < 1 {
		lNS = 1
	}
	for ns := 0; ns < nsCount; ns++ {
		if ns < lNS {
			c.Mix.AddL(2, ns)
		} else {
			c.Mix.AddT(8, ns)
		}
	}
	r := c.Run(sc.Warmup, sc.Measure)
	return Fig10Cell{
		Kind: kind, Namespaces: nsCount,
		LTenants: len(c.Mix.LJobs), TTenants: len(c.Mix.TJobs),
		Tail: r.LTenantLatency.P999, Avg: r.LTenantLatency.Mean, TMBps: r.TThroughputMBps,
		LOps: r.LTenantLatency.Count,
	}
}

// RunFig10 sweeps namespace counts for the comparison targets.
func RunFig10(sc Scale) Fig10Result {
	nNS := len(NamespaceCounts)
	return Fig10Result{Cells: RunCells(len(ComparisonKinds)*nNS, func(i int) Fig10Cell {
		return RunMultiNS(ComparisonKinds[i/nNS], NamespaceCounts[i%nNS], sc)
	})}
}

// WriteText renders the panels.
func (r Fig10Result) WriteText(w io.Writer) {
	header(w, "Figure 10: multi-namespace scenarios (L:T namespaces = 1:3)")
	t := newTable(w)
	t.row("stack", "namespaces", "L/T tenants", "tail p99.9 (ms)", "avg (ms)", "T MB/s")
	for _, c := range r.Cells {
		tail, avg := ms(c.Tail), ms(c.Avg)
		if c.LOps == 0 {
			tail, avg = "blocked", "blocked"
		}
		t.row(string(c.Kind), strconv.Itoa(c.Namespaces),
			strconv.Itoa(c.LTenants)+"/"+strconv.Itoa(c.TTenants),
			tail, avg, f1(c.TMBps))
	}
	t.flush()
}

// Cell returns the measurement for (kind, nsCount), or false.
func (r Fig10Result) Cell(kind StackKind, nsCount int) (Fig10Cell, bool) {
	for _, c := range r.Cells {
		if c.Kind == kind && c.Namespaces == nsCount {
			return c, true
		}
	}
	return Fig10Cell{}, false
}
