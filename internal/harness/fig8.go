package harness

import (
	"fmt"
	"io"
	"math"

	"daredevil/internal/sim"
	"daredevil/internal/stats"
)

// Fig8Point is one time window of the Figure 8 fluctuation series.
type Fig8Point struct {
	At sim.Time
	// LAvgMs is the mean L-tenant latency in the window (ms); zero when no
	// L-request completed (blockage).
	LAvgMs float64
	// TMBps is the T-tenant throughput in the window.
	TMBps float64
}

// Fig8Series is one stack's run.
type Fig8Series struct {
	Kind   StackKind
	Points []Fig8Point
}

// Fig8Result reproduces Figure 8: per-window average latency and throughput
// while T-pressure steps up phase by phase.
type Fig8Result struct {
	Machine  string
	PhaseLen sim.Duration
	Phases   []int // T-tenant count per phase
	Window   sim.Duration
	Series   []Fig8Series
}

// RunFig8 steps T-pressure 4→8→16→32 on WS-M, sampling windows.
func RunFig8(sc Scale) Fig8Result {
	phases := []int{4, 8, 16, 32}
	phaseLen := sc.Measure
	window := phaseLen / 8
	if window <= 0 {
		window = sim.Millisecond
	}
	res := Fig8Result{Machine: "WS-M", PhaseLen: phaseLen, Phases: phases, Window: window}
	res.Series = RunCells(len(ComparisonKinds), func(i int) Fig8Series {
		kind := ComparisonKinds[i]
		c := NewCell(WSM(), kind)
		mix := c.Mix
		mix.AddL(4, 0)
		mix.AddT(phases[len(phases)-1], 0)
		for _, j := range mix.AllJobs() {
			j.EnableSeries(window)
		}
		// Start L-tenants now and each phase's new T-tenants at its
		// boundary.
		c.start = func() {
			mix.start(mix.LJobs)
			started := 0
			for pi, n := range phases {
				mix.startAt(sim.Time(sim.Duration(pi)*phaseLen), mix.TJobs[started:n])
				started = n
			}
		}
		// The series cover the whole run: no warmup.
		end := sim.Time(sim.Duration(len(phases)) * phaseLen)
		c.Run(0, sim.Duration(end))

		// Merge job series point-wise.
		var latSets [][]stats.SeriesPoint
		for _, j := range mix.LJobs {
			latSets = append(latSets, j.LatSeries.Finish(end))
		}
		var tputSets [][]stats.SeriesPoint
		for _, j := range mix.TJobs {
			tputSets = append(tputSets, j.TputSeries.Finish(end))
		}
		// Merge up to the longest series actually produced: a run end that is
		// not window-aligned yields a final partial window (Series.Finish
		// flushes it), and truncating to end/window would drop it.
		n := 0
		for _, s := range latSets {
			if len(s) > n {
				n = len(s)
			}
		}
		for _, s := range tputSets {
			if len(s) > n {
				n = len(s)
			}
		}
		ser := Fig8Series{Kind: kind}
		for i := 0; i < n; i++ {
			p := Fig8Point{At: sim.Time(sim.Duration(i) * window)}
			var latSum float64
			var latN int
			for _, s := range latSets {
				if i < len(s) && s[i].Value > 0 {
					latSum += s[i].Value
					latN++
				}
			}
			if latN > 0 {
				p.LAvgMs = latSum / float64(latN)
			}
			var bytes float64
			for _, s := range tputSets {
				if i < len(s) {
					bytes += s[i].Value
				}
			}
			p.TMBps = bytes / 1e6 / window.Seconds()
			ser.Points = append(ser.Points, p)
		}
		return ser
	})
	return res
}

// WriteText renders the latency and throughput series.
func (r Fig8Result) WriteText(w io.Writer) {
	header(w, fmt.Sprintf("Figure 8 (%s): behavior during rising T-pressure (phases %v, %v each)",
		r.Machine, r.Phases, r.PhaseLen))
	t := newTable(w)
	hdr := []string{"window"}
	for _, s := range r.Series {
		hdr = append(hdr, string(s.Kind)+" Lavg(ms)", string(s.Kind)+" T(MB/s)")
	}
	t.row(hdr...)
	if len(r.Series) == 0 {
		t.flush()
		return
	}
	for i := range r.Series[0].Points {
		row := []string{r.Series[0].Points[i].At.String()}
		for _, s := range r.Series {
			row = append(row, f2(s.Points[i].LAvgMs), f1(s.Points[i].TMBps))
		}
		t.row(row...)
	}
	t.flush()
}

// Fluctuation reports the coefficient of variation of a stack's windowed L
// latency over the last phase — the instability blk-switch exhibits.
func (r Fig8Result) Fluctuation(kind StackKind) float64 {
	for _, s := range r.Series {
		if s.Kind != kind {
			continue
		}
		from := len(s.Points) * (len(r.Phases) - 1) / len(r.Phases)
		// Blocked windows (no L completion) count as zero: total blockage
		// is the extreme form of fluctuation (Fig. 6c).
		var vals []float64
		any := false
		for _, p := range s.Points[from:] {
			vals = append(vals, p.LAvgMs)
			if p.LAvgMs > 0 {
				any = true
			}
		}
		if len(vals) < 2 || !any {
			return 0
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		mean := sum / float64(len(vals))
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		std := ss / float64(len(vals))
		if mean == 0 {
			return 0
		}
		return math.Sqrt(std) / mean
	}
	return 0
}
