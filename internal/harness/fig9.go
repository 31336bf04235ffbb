package harness

import (
	"io"
	"strconv"

	"daredevil/internal/sim"
)

// Fig9Cell is one (stack, cores, T-count) tail-latency measurement.
type Fig9Cell struct {
	Kind   StackKind
	Cores  int
	TCount int
	Tail   sim.Duration
}

// Fig9Result reproduces Figure 9: sensitivity to available CPU cores.
type Fig9Result struct {
	Cells []Fig9Cell
}

// RunFig9 measures L-tenant p99.9 with 2, 4, 8 cores under low and high
// T-pressure on SV-M.
func RunFig9(sc Scale) Fig9Result {
	type spec struct {
		cores, n int
		kind     StackKind
	}
	var specs []spec
	for _, cores := range []int{2, 4, 8} {
		for _, n := range []int{4, 32} {
			for _, kind := range ComparisonKinds {
				specs = append(specs, spec{cores, n, kind})
			}
		}
	}
	return Fig9Result{Cells: RunCells(len(specs), func(i int) Fig9Cell {
		s := specs[i]
		r := RunMixOnce(SVM(s.cores), s.kind, 4, s.n, sc)
		return Fig9Cell{Kind: s.kind, Cores: s.cores, TCount: s.n, Tail: r.LTenantLatency.P999}
	})}
}

// WriteText renders the grid.
func (r Fig9Result) WriteText(w io.Writer) {
	header(w, "Figure 9: L-tenant p99.9 tail latency (ms) vs available cores (SV-M)")
	t := newTable(w)
	t.row("stack", "cores", "T-tenants", "tail p99.9 (ms)")
	for _, c := range r.Cells {
		t.row(string(c.Kind), strconv.Itoa(c.Cores), strconv.Itoa(c.TCount), ms(c.Tail))
	}
	t.flush()
}

// Cell returns the measurement for (kind, cores, tCount), or false.
func (r Fig9Result) Cell(kind StackKind, cores, tCount int) (Fig9Cell, bool) {
	for _, c := range r.Cells {
		if c.Kind == kind && c.Cores == cores && c.TCount == tCount {
			return c, true
		}
	}
	return Fig9Cell{}, false
}
