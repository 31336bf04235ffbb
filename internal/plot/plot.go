// Package plot renders line, grouped-bar and 100%-stacked-bar charts as
// standalone SVG using only the standard library. It is the repository's
// one chart writer: the paper figures (ddbench -svg), the gauge sparklines
// (ddbench -obs) and the layer-latency breakdown (ddbench -prof) are all
// projected onto a Chart and rendered here.
//
// The feature set is deliberately small — linear/log10 Y axes, nice tick
// selection, a fixed color palette, legends, small multiples — but the
// output is valid, self-contained SVG 1.1.
package plot

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strings"
)

// Kind selects the mark type.
type Kind uint8

// Chart kinds.
const (
	// Lines draws one polyline per series over numeric X.
	Lines Kind = iota
	// Bars draws grouped vertical bars, one group per X category.
	Bars
	// Stacked draws one 100%-stacked vertical bar per X category (none: an
	// empty frame): each series is a segment sized by its share of the
	// category's total, and hovering the segment shows that share.
	Stacked
)

// Series is one named data set. For Lines, X and Y pair up point-wise; for
// Bars and Stacked, Y values align with the chart's Categories and X is
// ignored.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	// Notes align with Y; Stacked appends each to its segment's hover title.
	Notes []string
}

// Chart is a renderable figure.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// LogY uses a log10 Y axis (latency spans decades in this repo).
	LogY bool
	Kind Kind
	// Categories labels bar groups (Bars and Stacked).
	Categories []string
	Series     []Series
	// Width and Height default to 640x400.
	Width  int
	Height int
}

// palette holds distinguishable series colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
	"#9467bd", "#8c564b", "#17becf", "#7f7f7f",
}

const (
	marginLeft   = 64.0
	marginRight  = 16.0
	marginTop    = 36.0
	marginBottom = 48.0
	// legendW is the legend's width. Lines and Bars draw it inside the
	// frame's top-right corner; Stacked gives it a strip of its own.
	legendW = 130.0
)

// Validate reports structural problems before rendering.
func (c *Chart) Validate() error {
	if len(c.Series) == 0 {
		return fmt.Errorf("plot: chart %q has no series", c.Title)
	}
	if c.Kind == Stacked && c.LogY {
		return fmt.Errorf("plot: stacked chart %q cannot use a log Y axis", c.Title)
	}
	for _, s := range c.Series {
		switch c.Kind {
		case Lines:
			if len(s.X) != len(s.Y) {
				return fmt.Errorf("plot: series %q has %d X vs %d Y points", s.Name, len(s.X), len(s.Y))
			}
			if len(s.Y) == 0 {
				return fmt.Errorf("plot: series %q is empty", s.Name)
			}
		case Bars, Stacked:
			if len(c.Categories) == 0 && c.Kind == Bars {
				return fmt.Errorf("plot: bar chart %q needs categories", c.Title)
			}
			if len(s.Y) != len(c.Categories) {
				return fmt.Errorf("plot: series %q has %d values for %d categories",
					s.Name, len(s.Y), len(c.Categories))
			}
		default:
			return fmt.Errorf("plot: unknown kind %d", c.Kind)
		}
	}
	return nil
}

// WriteSVG renders the chart.
func (c *Chart) WriteSVG(w io.Writer) error {
	var b strings.Builder
	if err := c.render(&b); err != nil {
		return err
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMultiples renders charts as small multiples: one SVG document that
// stacks the charts top to bottom, as wide as the widest of them.
func WriteMultiples(w io.Writer, charts []*Chart) error {
	var body strings.Builder
	var width, height float64
	for _, c := range charts {
		fmt.Fprintf(&body, `<g transform="translate(0,%.0f)">`+"\n", height)
		if err := c.render(&body); err != nil {
			return err
		}
		body.WriteString("</g>\n")
		cw, ch := c.size()
		width = math.Max(width, cw)
		height += ch
	}
	_, err := fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f">`+"\n%s</svg>\n",
		width, height, body.String())
	return err
}

// WellFormed reports whether svg parses as XML from start to end.
func WellFormed(svg []byte) error {
	dec := xml.NewDecoder(bytes.NewReader(svg))
	for {
		if _, err := dec.Token(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// size returns the chart's dimensions, defaulting to 640x400.
func (c *Chart) size() (width, height float64) {
	width, height = float64(c.Width), float64(c.Height)
	if width <= 0 {
		width = 640
	}
	if height <= 0 {
		height = 400
	}
	return width, height
}

// render appends the chart's standalone <svg> element to b.
func (c *Chart) render(b *strings.Builder) error {
	if err := c.Validate(); err != nil {
		return err
	}
	width, height := c.size()
	plotW := width - marginLeft - marginRight
	if c.Kind == Stacked {
		plotW -= legendW + marginRight
	}
	plotH := height - marginTop - marginBottom

	xMin, xMax := c.xRange()
	yMin, yMax := c.yRange()
	xScale := func(v float64) float64 {
		if xMax == xMin {
			return marginLeft + plotW/2
		}
		return marginLeft + (v-xMin)/(xMax-xMin)*plotW
	}
	yScale := func(v float64) float64 {
		lo, hi, vv := yMin, yMax, v
		if c.LogY {
			lo, hi, vv = math.Log10(yMin), math.Log10(yMax), math.Log10(clampPos(v, yMin))
		}
		if hi == lo {
			return marginTop + plotH/2
		}
		return marginTop + plotH - (vv-lo)/(hi-lo)*plotH
	}

	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(b, `<text x="%.0f" y="20" font-family="sans-serif" font-size="14" text-anchor="middle" font-weight="bold">%s</text>`+"\n",
		width/2, escape(c.Title))

	// Axes frame.
	fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#333" stroke-width="1"/>`+"\n",
		marginLeft, marginTop, plotW, plotH)

	// Y ticks + gridlines.
	for _, tick := range c.yTicks(yMin, yMax) {
		y := yScale(tick)
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd" stroke-width="0.5"/>`+"\n",
			marginLeft, y, marginLeft+plotW, y)
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
			marginLeft-6, y+3, formatTick(tick))
	}
	// Axis labels.
	fmt.Fprintf(b, `<text x="%.0f" y="%.0f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
		marginLeft+plotW/2, height-10, escape(c.XLabel))
	fmt.Fprintf(b, `<text x="14" y="%.0f" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-90 14 %.0f)">%s</text>`+"\n",
		marginTop+plotH/2, marginTop+plotH/2, escape(c.YLabel))

	switch c.Kind {
	case Lines:
		c.renderLines(b, xScale, yScale)
		// X ticks for numeric axis.
		for _, tick := range niceTicks(xMin, xMax, 6) {
			x := xScale(tick)
			fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`+"\n",
				x, marginTop+plotH+14, formatTick(tick))
		}
	case Bars, Stacked:
		c.renderBars(b, plotW, plotH, yScale)
	}

	c.renderLegend(b, width)
	b.WriteString("</svg>\n")
	return nil
}

func (c *Chart) renderLines(b *strings.Builder, xScale, yScale func(float64) float64) {
	for i, s := range c.Series {
		color := palette[i%len(palette)]
		var pts []string
		for j := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xScale(s.X[j]), yScale(s.Y[j])))
		}
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		for j := range s.X {
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`+"\n",
				xScale(s.X[j]), yScale(s.Y[j]), color)
		}
	}
}

func (c *Chart) renderBars(b *strings.Builder, plotW, plotH float64, yScale func(float64) float64) {
	groupW := plotW / float64(len(c.Categories))
	barW := groupW * 0.8 / float64(len(c.Series))
	baseline := marginTop + plotH
	for gi, cat := range c.Categories {
		gx := marginLeft + float64(gi)*groupW
		if c.Kind == Stacked {
			c.renderStack(b, gi, gx+groupW*0.1, groupW*0.8, yScale)
		} else {
			for si, s := range c.Series {
				x := gx + groupW*0.1 + float64(si)*barW
				y := yScale(s.Y[gi])
				h := math.Max(baseline-y, 0)
				fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
					x, y, barW*0.92, h, palette[si%len(palette)])
			}
		}
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`+"\n",
			gx+groupW/2, baseline+14, escape(cat))
	}
}

// renderStack draws category gi as one bar of width barW at x, one segment
// per series with a positive value, sized by its share of the category's
// total and titled with that share and the series' note.
func (c *Chart) renderStack(b *strings.Builder, gi int, x, barW float64, yScale func(float64) float64) {
	var total float64
	for _, s := range c.Series {
		total += math.Max(s.Y[gi], 0)
	}
	var below float64 // percent already stacked under the next segment
	for si, s := range c.Series {
		if s.Y[gi] <= 0 {
			continue
		}
		pct := 100 * s.Y[gi] / total
		title := fmt.Sprintf("%s %.1f%%", s.Name, pct)
		if gi < len(s.Notes) && s.Notes[gi] != "" {
			title += " " + s.Notes[gi]
		}
		top := yScale(below + pct)
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s</title></rect>`+"\n",
			x, top, barW, yScale(below)-top, palette[si%len(palette)], escape(title))
		below += pct
	}
}

func (c *Chart) renderLegend(b *strings.Builder, width float64) {
	x := width - marginRight - legendW
	y := marginTop + 8.0
	for i, s := range c.Series {
		color := palette[i%len(palette)]
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="10" height="10" fill="%s"/>`+"\n", x, y-9, color)
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			x+14, y, escape(s.Name))
		y += 16
	}
}

func (c *Chart) xRange() (lo, hi float64) {
	if c.Kind != Lines {
		return 0, 1
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, v := range s.X {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	return lo, hi
}

func (c *Chart) yRange() (lo, hi float64) {
	if c.Kind == Stacked {
		return 0, 100
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, v := range s.Y {
			if c.LogY && v <= 0 {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) { // all values filtered (log with non-positives)
		lo, hi = 0.1, 1
	}
	if c.LogY {
		// Expand to full decades for readable log grids.
		lo = math.Pow(10, math.Floor(math.Log10(lo)))
		hi = math.Pow(10, math.Ceil(math.Log10(hi)))
		if lo == hi {
			hi = lo * 10
		}
		return lo, hi
	}
	if lo > 0 {
		lo = 0 // bar/line charts read better anchored at zero
	}
	if hi == lo {
		hi = lo + 1
	}
	return lo, hi
}

// yTicks picks gridline positions.
func (c *Chart) yTicks(lo, hi float64) []float64 {
	if !c.LogY {
		return niceTicks(lo, hi, 6)
	}
	var ticks []float64
	for d := math.Log10(lo); d <= math.Log10(hi)+1e-9; d++ {
		ticks = append(ticks, math.Pow(10, d))
	}
	return ticks
}

// niceTicks returns ~n round tick values spanning [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	span := hi - lo
	if span <= 0 {
		return []float64{lo}
	}
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for span/step > float64(n)*2 {
		step *= 2
		if span/step <= float64(n)*2 {
			break
		}
		step *= 2.5
	}
	var ticks []float64
	start := math.Ceil(lo/step) * step
	for v := start; v <= hi+step/1e6; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

func clampPos(v, min float64) float64 {
	if v < min {
		return min
	}
	return v
}

func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.0fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	case av >= 10 || av == 0 || v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
