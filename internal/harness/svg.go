package harness

import (
	"fmt"
	"strconv"

	"daredevil/internal/obs"
	"daredevil/internal/plot"
	"daredevil/internal/prof"
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// Chart projections: each charted result, the sampled gauges, and the
// layer-latency profile project onto a plot.Chart, and package plot renders
// every one of them (ddbench -svg, -obs, -prof).

// Charted is implemented by the experiment results that have a figure
// form.
type Charted interface {
	Chart() *plot.Chart
}

func msF(d sim.Duration) float64 { return d.Milliseconds() }

// kindLines returns one line series per stack kind, in kinds order, with
// the points pts returns for that kind. Kinds without points are left out.
func kindLines(kinds []StackKind, pts func(kind StackKind) (x, y []float64)) []plot.Series {
	var out []plot.Series
	for _, kind := range kinds {
		if x, y := pts(kind); len(x) > 0 {
			out = append(out, plot.Series{Name: string(kind), X: x, Y: y})
		}
	}
	return out
}

// kindBars returns one bar series per comparison stack with one value per
// category: value(kind, i) for category i, or 0 where that cell is missing.
func kindBars(categories int, value func(kind StackKind, i int) (float64, bool)) []plot.Series {
	out := make([]plot.Series, 0, len(ComparisonKinds))
	for _, kind := range ComparisonKinds {
		y := make([]float64, categories)
		for i := range y {
			if v, ok := value(kind, i); ok {
				y[i] = v
			}
		}
		out = append(out, plot.Series{Name: string(kind), Y: y})
	}
	return out
}

// Chart projects Figure 2 as two latency curves per configuration.
func (r Fig2Result) Chart() *plot.Chart {
	var x, withAvg, withoutAvg, withTail, withoutTail []float64
	for _, row := range r.Rows {
		x = append(x, float64(row.TCount))
		withAvg = append(withAvg, msF(row.WithAvg))
		withoutAvg = append(withoutAvg, msF(row.WithoutAvg))
		withTail = append(withTail, msF(row.WithTail))
		withoutTail = append(withoutTail, msF(row.WithoutTail))
	}
	return &plot.Chart{
		Title:  "Figure 2: L-tenant latency w/ and w/o NQ interference",
		XLabel: "co-running T-tenants", YLabel: "latency (ms, log)",
		Kind: plot.Lines, LogY: true,
		Series: []plot.Series{
			{Name: "w/ tail p99.9", X: x, Y: withTail},
			{Name: "w/o tail p99.9", X: x, Y: withoutTail},
			{Name: "w/ avg", X: x, Y: withAvg},
			{Name: "w/o avg", X: x, Y: withoutAvg},
		},
	}
}

// Chart projects Figure 6/7 as average-latency curves per stack.
func (r Fig6Result) Chart() *plot.Chart {
	return &plot.Chart{
		Title:  "Figure 6/7 (" + r.Machine + "): L-tenant average latency vs T-pressure",
		XLabel: "T-tenants", YLabel: "avg latency (ms, log)",
		Kind: plot.Lines, LogY: true,
		Series: kindLines(ComparisonKinds, func(kind StackKind) (x, y []float64) {
			for _, cell := range r.Cells {
				if cell.Kind == kind && cell.LOps > 0 {
					x, y = append(x, float64(cell.TCount)), append(y, msF(cell.Avg))
				}
			}
			return x, y
		}),
	}
}

// Chart projects Figure 8 as the windowed L-latency series per stack.
func (r Fig8Result) Chart() *plot.Chart {
	c := &plot.Chart{
		Title:  "Figure 8 (" + r.Machine + "): windowed L-tenant latency, rising T-pressure",
		XLabel: "time (ms)", YLabel: "window avg latency (ms, log)",
		Kind: plot.Lines, LogY: true,
	}
	for _, s := range r.Series {
		var x, y []float64
		for _, p := range s.Points {
			if p.LAvgMs > 0 { // blocked windows have no defined latency
				x, y = append(x, sim.Duration(p.At).Milliseconds()), append(y, p.LAvgMs)
			}
		}
		if len(x) > 0 {
			c.Series = append(c.Series, plot.Series{Name: string(s.Kind), X: x, Y: y})
		}
	}
	return c
}

// Chart projects Figure 9 as grouped bars (cores x pressure) per stack.
func (r Fig9Result) Chart() *plot.Chart {
	type key struct{ cores, t int }
	var keys []key
	var cats []string
	for _, cores := range []int{2, 4, 8} {
		for _, tc := range []int{4, 32} {
			keys = append(keys, key{cores, tc})
			cats = append(cats, fmt.Sprintf("%dc/%dT", cores, tc))
		}
	}
	return &plot.Chart{
		Title:  "Figure 9: L-tenant p99.9 vs available cores",
		XLabel: "cores / T-tenants", YLabel: "tail latency (ms, log)",
		Kind: plot.Bars, LogY: true, Categories: cats,
		Series: kindBars(len(keys), func(kind StackKind, i int) (float64, bool) {
			cell, ok := r.Cell(kind, keys[i].cores, keys[i].t)
			return msF(cell.Tail), ok
		}),
	}
}

// Chart projects Figure 10 as average latency bars per namespace count.
func (r Fig10Result) Chart() *plot.Chart {
	var cats []string
	for _, n := range NamespaceCounts {
		cats = append(cats, strconv.Itoa(n)+" ns")
	}
	return &plot.Chart{
		Title:  "Figure 10: multi-namespace L-tenant average latency",
		XLabel: "namespaces", YLabel: "avg latency (ms, log)",
		Kind: plot.Bars, LogY: true, Categories: cats,
		Series: kindBars(len(cats), func(kind StackKind, i int) (float64, bool) {
			cell, ok := r.Cell(kind, NamespaceCounts[i])
			return msF(cell.Avg), ok && cell.LOps > 0
		}),
	}
}

// Chart projects Figure 11's single-namespace ablation curves.
func (r Fig11Result) Chart() *plot.Chart {
	return &plot.Chart{
		Title:  "Figure 11: subsystem decomposition (single namespace)",
		XLabel: "T-tenants", YLabel: "avg latency (ms)",
		Kind: plot.Lines,
		Series: kindLines(AblationKinds, func(kind StackKind) (x, y []float64) {
			for _, cell := range r.SingleNS {
				if cell.Kind == kind {
					x, y = append(x, float64(cell.X)), append(y, msF(cell.Avg))
				}
			}
			return x, y
		}),
	}
}

// Chart projects Figure 12 as bars of the headline op per workload.
func (r Fig12Result) Chart() *plot.Chart {
	headline := map[string]workload.OpType{
		"YCSB-A": workload.OpUpdate, "YCSB-B": workload.OpGet,
		"YCSB-E": workload.OpScan, "YCSB-F": workload.OpRMW,
		"Mailserver": workload.OpFsync,
	}
	cats := []string{"YCSB-A", "YCSB-B", "YCSB-E", "YCSB-F", "Mailserver"}
	return &plot.Chart{
		Title:  "Figure 12: real-world workloads (headline op latency)",
		XLabel: "workload", YLabel: "latency (ms, log)",
		Kind: plot.Bars, LogY: true, Categories: cats,
		Series: kindBars(len(cats), func(kind StackKind, i int) (float64, bool) {
			cell, ok := r.Cell(cats[i], kind)
			return msF(cell.Metrics[headline[cats[i]]]), ok
		}),
	}
}

// Chart projects Figure 13 as average latency vs TL count (fixed L=12).
func (r Fig13Result) Chart() *plot.Chart {
	return &plot.Chart{
		Title:  "Figure 13: L-tenant average latency vs TL-tenants (12 L-tenants)",
		XLabel: "TL-tenants", YLabel: "avg latency (ms)",
		Kind: plot.Lines,
		Series: kindLines([]StackKind{Vanilla, DareFull}, func(kind StackKind) (x, y []float64) {
			for _, n := range []int{4, 8, 12, 16} {
				if cell, ok := r.Cell(kind, "L", 12, n); ok {
					x, y = append(x, float64(n)), append(y, msF(cell.Avg))
				}
			}
			return x, y
		}),
	}
}

// Chart projects Figure 14 as the normalized performance curves.
func (r Fig14Result) Chart() *plot.Chart {
	var x, iops, tput, cpu []float64
	for _, row := range r.Rows {
		if row.Interval == 0 {
			continue
		}
		// X axis: updates per second (log-friendly).
		x = append(x, 1e9/float64(row.Interval))
		iops = append(iops, row.LIOPSNorm)
		tput = append(tput, row.TMBpsNorm)
		cpu = append(cpu, row.CPUUtil)
	}
	return &plot.Chart{
		Title:  "Figure 14: normalized performance under ionice update storms",
		XLabel: "updates per second per tenant", YLabel: "normalized",
		Kind: plot.Lines,
		Series: []plot.Series{
			{Name: "L IOPS (norm)", X: x, Y: iops},
			{Name: "T MB/s (norm)", X: x, Y: tput},
			{Name: "CPU util", X: x, Y: cpu},
		},
	}
}

// obsCharts projects the sampled gauges as sparklines: one compact line
// chart per gauge that has samples, in registration order.
func obsCharts(s *obs.Sampler) []*plot.Chart {
	var charts []*plot.Chart
	for _, sr := range s.Series() {
		if len(sr.Points) == 0 {
			continue
		}
		var x, y []float64
		for _, p := range sr.Points {
			x = append(x, sim.Duration(p.At).Milliseconds())
			y = append(y, p.Value)
		}
		charts = append(charts, &plot.Chart{
			Title: sr.Name, XLabel: "t (ms)", YLabel: sr.Name,
			Kind: plot.Lines, Width: 560, Height: 130,
			Series: []plot.Series{{Name: sr.Name, X: x, Y: y}},
		})
	}
	return charts
}

// breakdownChart projects a profile as the §7.5 breakdown: one
// 100%-stacked bar per (stack, class) group, with every taxonomy layer a
// series in obs.LayerNames() order, so a layer keeps its color in every
// artifact even where it carries no mass. A segment's hover shows the
// layer's share and mean; a profile with no groups draws an empty frame.
func breakdownChart(p prof.Profile) *plot.Chart {
	names := obs.LayerNames()
	series := make([]plot.Series, len(names))
	for l, name := range names {
		series[l] = plot.Series{Name: name, Y: make([]float64, len(p.Groups)), Notes: make([]string, len(p.Groups))}
	}
	cats := make([]string, len(p.Groups))
	for gi, g := range p.Groups {
		cats[gi] = fmt.Sprintf("%s/%s n=%d", g.Stack, g.Class, g.Requests)
		for l, ls := range g.Layers {
			if l < len(series) {
				series[l].Y[gi] = float64(ls.Sum)
				series[l].Notes[gi] = fmt.Sprintf("(%s mean)", ls.Mean())
			}
		}
	}
	return &plot.Chart{
		Title:  "Where the time goes: latency share per layer",
		XLabel: "stack / class", YLabel: "share of latency (%)",
		Kind: plot.Stacked, Categories: cats, Series: series,
		Width: 240 + 110*len(cats),
	}
}
