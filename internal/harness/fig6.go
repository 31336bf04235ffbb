package harness

import (
	"io"
	"strconv"

	"daredevil/internal/sim"
)

// TPressureCounts is the rising T-tenant schedule of §7.1.
var TPressureCounts = []int{2, 4, 8, 16, 32}

// Fig6Cell is one (stack, T-count) measurement.
type Fig6Cell struct {
	Kind   StackKind
	TCount int
	Tail   sim.Duration // L-tenant 99.9th percentile (panel a)
	Avg    sim.Duration // L-tenant average (panel b)
	LKIOPS float64      // L-tenant KIOPS (panel c)
	TMBps  float64      // T-tenant throughput (panel d)
	// LOps counts L completions in the window; zero means total blockage.
	LOps uint64
	// CPUUtil is the mean core utilization (the paper notes Daredevil's
	// ~2.3% extra CPU at low pressure from cross-core completion).
	CPUUtil float64
}

// Fig6Result reproduces Figure 6 (SV-M, rising T-pressure).
type Fig6Result struct {
	Machine string
	Cells   []Fig6Cell
}

// RunFig6 sweeps T-pressure on SV-M for the comparison targets.
func RunFig6(sc Scale) Fig6Result {
	return runPressureSweep(SVM(4), sc)
}

// RunFig7 is the WS-M complement (Figure 7): more NSQs than cores give
// Daredevil more routing space.
func RunFig7(sc Scale) Fig6Result {
	return runPressureSweep(WSM(), sc)
}

func runPressureSweep(m Machine, sc Scale) Fig6Result {
	res := Fig6Result{Machine: m.Name}
	grid := RunMixGrid(m, ComparisonKinds, 4, TPressureCounts, sc)
	for ki, kind := range ComparisonKinds {
		for ti, n := range TPressureCounts {
			r := grid[ki*len(TPressureCounts)+ti]
			res.Cells = append(res.Cells, Fig6Cell{
				Kind: kind, TCount: n,
				Tail: r.LTenantLatency.P999, Avg: r.LTenantLatency.Mean,
				LKIOPS: r.LTenantKIOPS, TMBps: r.TThroughputMBps,
				LOps: r.LTenantLatency.Count, CPUUtil: r.CPUUtilization,
			})
		}
	}
	return res
}

// WriteText renders the four panels.
func (r Fig6Result) WriteText(w io.Writer) {
	header(w, "Figure 6/7 ("+r.Machine+"): performance with increasing T-pressure")
	t := newTable(w)
	t.row("stack", "T-tenants", "tail p99.9 (ms)", "avg (ms)", "L KIOPS", "T MB/s", "CPU")
	for _, c := range r.Cells {
		tail, avg := ms(c.Tail), ms(c.Avg)
		if c.LOps == 0 {
			tail, avg = "blocked", "blocked"
		}
		t.row(string(c.Kind), strconv.Itoa(c.TCount),
			tail, avg, f2(c.LKIOPS), f1(c.TMBps), f2(c.CPUUtil))
	}
	t.flush()
}

// Cell returns the measurement for (kind, tCount), or false.
func (r Fig6Result) Cell(kind StackKind, tCount int) (Fig6Cell, bool) {
	for _, c := range r.Cells {
		if c.Kind == kind && c.TCount == tCount {
			return c, true
		}
	}
	return Fig6Cell{}, false
}
