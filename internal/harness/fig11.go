package harness

import (
	"io"
	"strconv"

	"daredevil/internal/sim"
)

// AblationKinds are the §7.3 subsystem decomposition targets.
var AblationKinds = []StackKind{DareBase, DareSched, DareFull}

// Fig11Cell is one ablation measurement.
type Fig11Cell struct {
	Kind StackKind
	// X is the T-tenant count (single-namespace panels) or the namespace
	// count (multi-namespace panels).
	X    int
	Tail sim.Duration
	Avg  sim.Duration
}

// Fig11Result reproduces Figure 11: decomposing Daredevil's optimizations
// into dare-base, dare-sched, and dare-full.
type Fig11Result struct {
	// SingleNS are panels (a)/(b): rising T-pressure.
	SingleNS []Fig11Cell
	// MultiNS are panels (c)/(d): varying namespace counts.
	MultiNS []Fig11Cell
}

// RunFig11 runs both ablation sweeps as one fanned-out grid.
func RunFig11(sc Scale) Fig11Result {
	type spec struct {
		kind  StackKind
		x     int
		multi bool
	}
	var specs []spec
	for _, kind := range AblationKinds {
		for _, n := range TPressureCounts {
			specs = append(specs, spec{kind, n, false})
		}
		for _, n := range NamespaceCounts {
			specs = append(specs, spec{kind, n, true})
		}
	}
	cells := RunCells(len(specs), func(i int) Fig11Cell {
		s := specs[i]
		if s.multi {
			c := RunMultiNS(s.kind, s.x, sc)
			return Fig11Cell{Kind: s.kind, X: s.x, Tail: c.Tail, Avg: c.Avg}
		}
		r := RunMixOnce(SVM(4), s.kind, 4, s.x, sc)
		return Fig11Cell{Kind: s.kind, X: s.x, Tail: r.LTenantLatency.P999, Avg: r.LTenantLatency.Mean}
	})
	var res Fig11Result
	for i, s := range specs {
		if s.multi {
			res.MultiNS = append(res.MultiNS, cells[i])
		} else {
			res.SingleNS = append(res.SingleNS, cells[i])
		}
	}
	return res
}

// WriteText renders the four panels.
func (r Fig11Result) WriteText(w io.Writer) {
	header(w, "Figure 11: decomposition of Daredevil's optimizations")
	t := newTable(w)
	t.row("panel", "subsystem", "x", "tail p99.9 (ms)", "avg (ms)")
	for _, c := range r.SingleNS {
		t.row("single-ns (a/b)", string(c.Kind), strconv.Itoa(c.X), ms(c.Tail), ms(c.Avg))
	}
	for _, c := range r.MultiNS {
		t.row("multi-ns (c/d)", string(c.Kind), strconv.Itoa(c.X), ms(c.Tail), ms(c.Avg))
	}
	t.flush()
}

// SingleCell returns the single-namespace cell for (kind, tCount).
func (r Fig11Result) SingleCell(kind StackKind, tCount int) (Fig11Cell, bool) {
	for _, c := range r.SingleNS {
		if c.Kind == kind && c.X == tCount {
			return c, true
		}
	}
	return Fig11Cell{}, false
}
