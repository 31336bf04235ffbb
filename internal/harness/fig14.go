package harness

import (
	"fmt"
	"io"

	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// Fig14Row is one ionice-update interval measurement.
type Fig14Row struct {
	// Interval between base-priority updates (0 = no updates, the
	// baseline).
	Interval sim.Duration
	// Normalized metrics (1.0 = baseline without updates).
	LIOPSNorm float64
	TMBpsNorm float64
	CPUUtil   float64
	// Updates performed in the window.
	Updates uint64
}

// Fig14Result reproduces Figure 14: performance under continuously updated
// tenant base priorities, which force default-NSQ re-scheduling (§7.5).
type Fig14Result struct {
	Rows []Fig14Row
}

// Fig14Intervals is the update-interval sweep (1s down to 10µs).
var Fig14Intervals = []sim.Duration{
	sim.Second, 100 * sim.Millisecond, 10 * sim.Millisecond,
	sim.Millisecond, 100 * sim.Microsecond, 10 * sim.Microsecond,
}

// RunFig14 runs 4 L + 4 T tenants on Daredevil while an updater re-sets
// ionice values at decreasing intervals. All cells (the no-update baseline
// included) fan out together; normalization against the baseline happens
// after assembly, so the parallel result matches the serial one.
func RunFig14(sc Scale) Fig14Result {
	type cell struct {
		r       CellResult
		updates uint64
	}
	intervals := append([]sim.Duration{0}, Fig14Intervals...)
	cells := RunCells(len(intervals), func(i int) cell {
		c := NewCell(SVM(4), DareFull)
		c.Mix.AddL(4, 0)
		c.Mix.AddT(4, 0)
		up := new(workload.IoniceUpdater) // stays zero for the baseline
		if iv := intervals[i]; iv > 0 {
			c.Aux = append(c.Aux, startHook(func(env *Env) {
				up = workload.StartIoniceUpdater(env.Eng, env.Stack, c.Mix.Tenants(),
					iv, sim.Time(sc.Warmup+sc.Measure))
			}))
		}
		r := c.Run(sc.Warmup, sc.Measure)
		return cell{r, up.Updates}
	})
	base := cells[0].r
	res := Fig14Result{Rows: []Fig14Row{{
		Interval: 0, LIOPSNorm: 1, TMBpsNorm: 1, CPUUtil: base.CPUUtilization,
	}}}
	for i, iv := range Fig14Intervals {
		c := cells[i+1]
		row := Fig14Row{Interval: iv, CPUUtil: c.r.CPUUtilization, Updates: c.updates}
		if base.LTenantKIOPS > 0 {
			row.LIOPSNorm = c.r.LTenantKIOPS / base.LTenantKIOPS
		}
		if base.TThroughputMBps > 0 {
			row.TMBpsNorm = c.r.TThroughputMBps / base.TThroughputMBps
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WriteText renders the normalized series.
func (r Fig14Result) WriteText(w io.Writer) {
	header(w, "Figure 14: normalized performance under ionice update storms (Daredevil)")
	t := newTable(w)
	t.row("interval", "L IOPS (norm)", "T MB/s (norm)", "CPU util", "updates")
	for _, row := range r.Rows {
		iv := "none"
		if row.Interval > 0 {
			iv = row.Interval.String()
		}
		t.row(iv, f2(row.LIOPSNorm), f2(row.TMBpsNorm), f2(row.CPUUtil),
			fmt.Sprintf("%d", row.Updates))
	}
	t.flush()
}
