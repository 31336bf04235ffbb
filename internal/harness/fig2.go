package harness

import (
	"io"
	"strconv"

	"daredevil/internal/sim"
)

// Fig2Row is one T-tenant count of the §3.1 motivation experiment.
type Fig2Row struct {
	TCount int
	// WithInterfere is vanilla blk-mq (L- and T-tenants co-located within
	// the same NQs).
	WithTail, WithAvg sim.Duration
	// WithoutInterfere is the modified blk-mq that splits the 4 NQs
	// between classes.
	WithoutTail, WithoutAvg sim.Duration
}

// Fig2Result reproduces Figure 2: the severity of the multi-tenancy issue.
type Fig2Result struct {
	Rows []Fig2Row
}

// RunFig2 runs 4 L-tenants against 0..32 T-tenants on 4 cores, with and
// without NQ-level interference.
func RunFig2(sc Scale) Fig2Result {
	counts := []int{0, 2, 4, 8, 16, 32}
	grid := RunMixGrid(SVM(4), []StackKind{Vanilla, StaticPart}, 4, counts, sc)
	var res Fig2Result
	for i, n := range counts {
		with, without := grid[i], grid[len(counts)+i]
		res.Rows = append(res.Rows, Fig2Row{
			TCount:      n,
			WithTail:    with.LTenantLatency.P999,
			WithAvg:     with.LTenantLatency.Mean,
			WithoutTail: without.LTenantLatency.P999,
			WithoutAvg:  without.LTenantLatency.Mean,
		})
	}
	return res
}

// WriteText renders the two panels of Figure 2.
func (r Fig2Result) WriteText(w io.Writer) {
	header(w, "Figure 2: L-tenant latency w/ and w/o NQ interference (ms)")
	t := newTable(w)
	t.row("T-tenants", "w/ tail(p99.9)", "w/o tail(p99.9)", "w/ avg", "w/o avg")
	for _, row := range r.Rows {
		t.row(strconv.Itoa(row.TCount),
			ms(row.WithTail), ms(row.WithoutTail),
			ms(row.WithAvg), ms(row.WithoutAvg))
	}
	t.flush()
}
