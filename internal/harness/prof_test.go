package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"daredevil/internal/obs"
	"daredevil/internal/sim"
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
	var table, folded bytes.Buffer
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
