package plot

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func linesChart() *Chart {
	return &Chart{
		Title: "latency vs pressure", XLabel: "T-tenants", YLabel: "ms",
		Kind: Lines,
		Series: []Series{
			{Name: "vanilla", X: []float64{2, 4, 8}, Y: []float64{5, 12, 26}},
			{Name: "daredevil", X: []float64{2, 4, 8}, Y: []float64{5, 6, 6}},
		},
	}
}

func barsChart() *Chart {
	return &Chart{
		Title: "ops", XLabel: "workload", YLabel: "ms",
		Kind:       Bars,
		Categories: []string{"A", "B"},
		Series: []Series{
			{Name: "vanilla", Y: []float64{28, 29}},
			{Name: "daredevil", Y: []float64{8, 7}},
		},
	}
}

func stackedChart() *Chart {
	return &Chart{
		Title: "breakdown", XLabel: "group", YLabel: "%",
		Kind:       Stacked,
		Categories: []string{"vanilla/L", "daredevil/L"},
		Series: []Series{
			{Name: "submit", Y: []float64{1, 3}},
			{Name: "gc", Y: []float64{0, 0}},
			{Name: "chip", Y: []float64{3, 1}},
		},
	}
}

// wellFormed checks the output parses as XML.
func wellFormed(t *testing.T, svg []byte) {
	t.Helper()
	if err := WellFormed(svg); err != nil {
		t.Fatalf("SVG is not well-formed XML: %v\n%s", err, svg)
	}
}

func TestLinesSVGWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := linesChart().WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	out := buf.String()
	if strings.Count(out, "<polyline") != 2 {
		t.Fatalf("want 2 polylines, got %d", strings.Count(out, "<polyline"))
	}
	for _, want := range []string{"vanilla", "daredevil", "latency vs pressure", "T-tenants"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
}

func TestBarsSVGWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := barsChart().WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	out := buf.String()
	// 2 categories x 2 series bars + background + frame + legend swatches.
	if strings.Count(out, "<rect") < 4+2 {
		t.Fatalf("too few rects: %d", strings.Count(out, "<rect"))
	}
}

func TestLogYAxis(t *testing.T) {
	c := linesChart()
	c.LogY = true
	c.Series[0].Y = []float64{0.08, 10, 100}
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
}

func TestLogYNonPositiveFiltered(t *testing.T) {
	c := linesChart()
	c.LogY = true
	c.Series[0].Y = []float64{0, 0, 0}
	c.Series[1].Y = []float64{0, 0, 0}
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatalf("all-zero log chart must still render: %v", err)
	}
	wellFormed(t, buf.Bytes())
}

func TestValidationErrors(t *testing.T) {
	cases := map[string]*Chart{
		"no series":       {Title: "x", Kind: Lines},
		"mismatched x/y":  {Kind: Lines, Series: []Series{{Name: "a", X: []float64{1}, Y: []float64{1, 2}}}},
		"empty series":    {Kind: Lines, Series: []Series{{Name: "a"}}},
		"bars no cats":    {Kind: Bars, Series: []Series{{Name: "a", Y: []float64{1}}}},
		"bars wrong size": {Kind: Bars, Categories: []string{"a", "b"}, Series: []Series{{Name: "a", Y: []float64{1}}}},
		"unknown kind":    {Kind: Kind(9), Series: []Series{{Name: "a", X: []float64{1}, Y: []float64{1}}}},
		"stacked no cats": {Kind: Stacked, Series: []Series{{Name: "a", Y: []float64{1}}}},
		"stacked log":     {Kind: Stacked, LogY: true, Categories: []string{"a"}, Series: []Series{{Name: "a", Y: []float64{1}}}},
	}
	for name, c := range cases {
		if err := c.WriteSVG(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestEscaping(t *testing.T) {
	c := linesChart()
	c.Title = `a <b> & "c"`
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	if strings.Contains(buf.String(), "<b>") {
		t.Fatal("title not escaped")
	}
}

func TestSinglePointSeries(t *testing.T) {
	c := &Chart{
		Kind:   Lines,
		Series: []Series{{Name: "one", X: []float64{5}, Y: []float64{5}}},
	}
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
}

func TestNiceTicksProperties(t *testing.T) {
	prop := func(loRaw, spanRaw uint16) bool {
		lo := float64(loRaw) / 7
		span := float64(spanRaw)/13 + 0.1
		hi := lo + span
		ticks := niceTicks(lo, hi, 6)
		if len(ticks) == 0 || len(ticks) > 20 {
			return false
		}
		prev := math.Inf(-1)
		for _, v := range ticks {
			if v < lo-span/1e6 || v > hi+span/1e6 {
				return false
			}
			if v <= prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		2500000: "2M", // rounded
		1500:    "2k",
		1000:    "1k",
		42:      "42",
		3.5:     "3.5",
		0.25:    "0.25",
		0:       "0",
	}
	for v, want := range cases {
		if got := formatTick(v); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestCustomDimensions(t *testing.T) {
	c := linesChart()
	c.Width, c.Height = 800, 300
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `width="800" height="300"`) {
		t.Fatal("custom dimensions not applied")
	}
}

func TestBarsWithLogY(t *testing.T) {
	c := barsChart()
	c.LogY = true
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
}

func TestBarsZeroValueRendersEmptyBar(t *testing.T) {
	c := barsChart()
	c.Series[0].Y = []float64{0, 29} // zero bar must not produce negative height
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	if strings.Contains(buf.String(), `height="-`) {
		t.Fatal("negative bar height emitted")
	}
}

func TestLinesIdenticalYRange(t *testing.T) {
	c := &Chart{
		Kind:   Lines,
		Series: []Series{{Name: "flat", X: []float64{1, 2, 3}, Y: []float64{5, 5, 5}}},
	}
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
}

// TestStackedSegmentsShareTheBar checks each category is one 100% bar:
// a titled segment per positive series, none for a zero one, and the
// segments of a bar together span the full plot height.
func TestStackedSegmentsShareTheBar(t *testing.T) {
	var buf bytes.Buffer
	if err := stackedChart().WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	out := buf.String()
	for _, want := range []string{"<title>submit 25.0%</title>", "<title>chip 75.0%</title>",
		"<title>submit 75.0%</title>", "<title>chip 25.0%</title>", ">gc</text>"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if n := strings.Count(out, "<title>"); n != 4 {
		t.Errorf("got %d segments, want 4 (the zero series draws none)", n)
	}
	// Plot height is 400 - 36 - 48 = 316: the two segments of a bar are
	// 79 and 237 high.
	for _, h := range []string{`height="79.0"`, `height="237.0"`} {
		if strings.Count(out, h) != 2 {
			t.Errorf("want two segments with %s", h)
		}
	}
}

// TestStackedNotesAndEmpty checks that a segment's note follows its share
// in the hover title, and that a stacked chart with no categories still
// renders its frame and legend.
func TestStackedNotesAndEmpty(t *testing.T) {
	c := stackedChart()
	c.Series[0].Notes = []string{"(2ms mean)", ""}
	var buf bytes.Buffer
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<title>submit 25.0% (2ms mean)</title>", "<title>submit 75.0%</title>"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}

	c = stackedChart()
	c.Categories = nil
	for i := range c.Series {
		c.Series[i].Y = nil
	}
	buf.Reset()
	if err := c.WriteSVG(&buf); err != nil {
		t.Fatalf("empty stacked chart must render: %v", err)
	}
	wellFormed(t, buf.Bytes())
	if out := buf.String(); strings.Contains(out, "<title>") || !strings.Contains(out, ">chip</text>") {
		t.Errorf("empty stacked chart should draw no segment but the full legend:\n%s", out)
	}
}

// TestWriteMultiplesStacksCharts checks the small-multiples document:
// each chart inside its own translated group, the outer size the widest
// chart by the summed heights.
func TestWriteMultiplesStacksCharts(t *testing.T) {
	a := linesChart()
	a.Width, a.Height = 560, 130
	b := barsChart()
	b.Width, b.Height = 500, 100
	var buf bytes.Buffer
	if err := WriteMultiples(&buf, []*Chart{a, b}); err != nil {
		t.Fatal(err)
	}
	wellFormed(t, buf.Bytes())
	out := buf.String()
	if !strings.HasPrefix(out, `<svg xmlns="http://www.w3.org/2000/svg" width="560" height="230">`) {
		t.Fatalf("outer svg header wrong:\n%.120s", out)
	}
	for _, want := range []string{`<g transform="translate(0,0)">`, `<g transform="translate(0,130)">`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if err := WriteMultiples(&bytes.Buffer{}, []*Chart{a, {Kind: Lines}}); err == nil {
		t.Fatal("an invalid chart must fail the whole document")
	}
}
