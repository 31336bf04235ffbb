package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"daredevil/internal/obs"
	"daredevil/internal/plot"
	"daredevil/internal/prof"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
)

// profScale keeps the profiled grid cheap: 12 cells (6 stacks × 2 mixes)
// still finish in a couple of seconds at this scale.
var profScale = Scale{Warmup: 5 * sim.Millisecond, Measure: 20 * sim.Millisecond}

// TestProfiledCell checks a single profiled cell end to end: the result
// carries a profile whose layers account for the requests' total latency,
// and the cell's exports render.
func TestProfiledCell(t *testing.T) {
	spec := profGridSpecs(profScale)[0]
	cell := BuildCell(spec)
	res := cell.Run(spec.Warmup, spec.Measure)
	if res.Profile == nil {
		t.Fatal("profiled cell returned no profile")
	}
	if got := len(res.Profile.Groups); got != 2 {
		t.Fatalf("groups = %d, want 2 (L and T)", got)
	}
	for _, g := range res.Profile.Groups {
		if g.Stack != string(spec.Kind) {
			t.Fatalf("group stack %q, want %q", g.Stack, spec.Kind)
		}
		if g.Requests == 0 {
			t.Fatalf("group %s/%s has no requests", g.Stack, g.Class)
		}
		if len(g.Layers) != obs.NumLayers {
			t.Fatalf("group %s has %d layers", g.Class, len(g.Layers))
		}
		// The taxonomy accounts for the total latency mass exactly: every
		// span's layers sum to its total (obs.Span.Layers).
		var layerSum int64
		for _, l := range g.Layers {
			layerSum += l.Sum
		}
		if layerSum == 0 || layerSum != g.Total.Sum {
			t.Fatalf("group %s: layer sum %d vs total %d", g.Class, layerSum, g.Total.Sum)
		}
	}
	var table, folded, svg bytes.Buffer
	if err := cell.WriteProfileTable(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "queue_wait") {
		t.Fatal("profile table missing layer rows")
	}
	if err := cell.WriteProfileFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(folded.String(), string(spec.Kind)+";") {
		t.Fatalf("folded stacks missing stack frames:\n%s", folded.String())
	}
	if err := cell.WriteProfileSVG(&svg); err != nil {
		t.Fatal(err)
	}
	if err := plot.WellFormed(svg.Bytes()); err != nil || !strings.HasPrefix(svg.String(), "<svg") ||
		!strings.Contains(svg.String(), string(spec.Kind)+"/L") {
		t.Fatalf("profile SVG malformed (%v):\n%.200s", err, svg.String())
	}
	if cell.Wall.Empty() {
		t.Fatal("wall self-profile empty on profiled run")
	}
	var wall bytes.Buffer
	if err := cell.WriteSelfProfile(&wall); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wall.String(), "measure") {
		t.Fatalf("self-profile missing phases:\n%s", wall.String())
	}
}

// TestBreakdownChart checks the §7.5 projection: one bar per (stack,
// class) group, every taxonomy layer a series in obs.LayerNames() order
// (zero-mass layers included, so palette colors never shift), and each
// rendered segment titled with its layer's share and mean.
func TestBreakdownChart(t *testing.T) {
	group := func(stack, class string, sums ...int64) prof.Group {
		g := prof.Group{Stack: stack, Class: class, Requests: 2}
		for l, name := range obs.LayerNames() {
			g.Layers = append(g.Layers, prof.LayerStat{Layer: name, DigestDump: stats.DigestDump{Count: 2, Sum: sums[l]}})
		}
		return g
	}
	c := breakdownChart(prof.Profile{Groups: []prof.Group{
		group("daredevil", "L", 1, 3, 0, 4, 0, 1, 1),
		group("vanilla", "T", 0, 0, 0, 5, 0, 0, 0),
	}})
	names := obs.LayerNames()
	if len(c.Series) != len(names) {
		t.Fatalf("%d series, want one per layer (%d)", len(c.Series), len(names))
	}
	for l, s := range c.Series {
		if s.Name != names[l] {
			t.Fatalf("series %d is %q, want %q", l, s.Name, names[l])
		}
	}
	if want := []string{"daredevil/L n=2", "vanilla/T n=2"}; !reflect.DeepEqual(c.Categories, want) {
		t.Fatalf("categories %q, want %q", c.Categories, want)
	}
	var svg bytes.Buffer
	if err := c.WriteSVG(&svg); err != nil {
		t.Fatal(err)
	}
	if err := plot.WellFormed(svg.Bytes()); err != nil {
		t.Fatal(err)
	}
	out := svg.String()
	for _, want := range []string{"<title>queue_wait 30.0% (1ns mean)</title>", "<title>chip 40.0% (2ns mean)</title>",
		"<title>chip 100.0% (2ns mean)</title>", ">gc</text>"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown SVG missing %q", want)
		}
	}
	if strings.Contains(out, "<title>gc ") {
		t.Error("zero-mass layer drew a segment")
	}

	// No completed request: an empty frame with the full legend, not an
	// error and not an empty file.
	svg.Reset()
	if err := breakdownChart(prof.Profile{}).WriteSVG(&svg); err != nil {
		t.Fatalf("empty profile: %v", err)
	}
	if err := plot.WellFormed(svg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if out := svg.String(); strings.Contains(out, "<title>") || !strings.Contains(out, ">"+names[len(names)-1]+"</text>") {
		t.Errorf("empty profile should draw no segment but the full legend:\n%s", out)
	}
}

// TestUnprofiledCellHasNoProfile pins the off path: no spec flag, no
// profile, no wall metering.
func TestUnprofiledCellHasNoProfile(t *testing.T) {
	spec := profGridSpecs(profScale)[0]
	spec.Profile = false
	cell := BuildCell(spec)
	res := cell.Run(spec.Warmup, spec.Measure)
	if res.Profile != nil {
		t.Fatal("unprofiled cell carries a profile")
	}
	if !cell.Wall.Empty() {
		t.Fatal("unprofiled cell metered wall time")
	}
	var buf bytes.Buffer
	if err := cell.WriteProfileTable(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("WriteProfileTable not a no-op when profiling is off")
	}
}

// TestProfDemoBitIdentityAcrossParallelism is the tentpole's determinism
// gate: the merged grid profile — table, folded stacks, SVG, and JSON —
// must be byte-identical between -j1 and -j8.
func TestProfDemoBitIdentityAcrossParallelism(t *testing.T) {
	defer SetParallelism(Parallelism())

	SetParallelism(1)
	d1, err := RunProfDemo(profScale)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(8)
	d8, err := RunProfDemo(profScale)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(d1.Breakdown, d8.Breakdown) {
		t.Error("merged breakdown table differs between -j1 and -j8")
	}
	if !bytes.Equal(d1.Folded, d8.Folded) {
		t.Error("merged folded stacks differ between -j1 and -j8")
	}
	if !bytes.Equal(d1.SVG, d8.SVG) {
		t.Error("merged SVG differs between -j1 and -j8")
	}
	if !bytes.Equal(d1.JSON, d8.JSON) {
		t.Error("merged JSON differs between -j1 and -j8")
	}
	if len(d1.Cells) != len(d8.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(d1.Cells), len(d8.Cells))
	}
	for i := range d1.Cells {
		if d1.Cells[i].Label != d8.Cells[i].Label {
			t.Fatalf("cell %d label differs: %s vs %s", i, d1.Cells[i].Label, d8.Cells[i].Label)
		}
		if !bytes.Equal(d1.Cells[i].Breakdown, d8.Cells[i].Breakdown) {
			t.Errorf("cell %s breakdown differs between -j1 and -j8", d1.Cells[i].Label)
		}
	}
	if d1.Merged.Requests() == 0 {
		t.Fatal("merged profile empty")
	}
}

// TestMergeCellProfilesOrderIndependent checks the grid-assembly merge is
// insensitive to cell order — the property that makes scheduling width
// irrelevant.
func TestMergeCellProfilesOrderIndependent(t *testing.T) {
	specs := profGridSpecs(profScale)[:3]
	results := RunCells(len(specs), func(i int) CellResult { return RunCellSpec(specs[i]) })
	fwd, ok := MergeCellProfiles(results)
	if !ok {
		t.Fatal("no profiles merged")
	}
	rev, _ := MergeCellProfiles([]CellResult{results[2], results[1], results[0]})
	var a, b bytes.Buffer
	if err := fwd.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rev.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("MergeCellProfiles depends on cell order")
	}
}

// TestProfiledRunDoesNotPerturbResults pins the observation-only property:
// arming the profiler must not move a single simulated metric.
func TestProfiledRunDoesNotPerturbResults(t *testing.T) {
	spec := profGridSpecs(profScale)[1]
	on := RunCellSpec(spec)
	spec.Profile = false
	off := RunCellSpec(spec)
	on.Profile = nil
	got, err := json.Marshal(on)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("profiling changed results:\n on=%s\noff=%s", got, want)
	}
}
