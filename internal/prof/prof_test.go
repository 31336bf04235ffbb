package prof

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

// span builds a completed span with a simple ladder: 1us per stage
// boundary, with the given fetch cost and GC wait folded in.
func span(class string, fetchCost, gcWait sim.Duration) *obs.Span {
	us := sim.Time(sim.Microsecond)
	return &obs.Span{
		Class:     class,
		Issue:     1 * us,
		Submit:    2 * us,  // submit     = 1us
		Fetch:     5 * us,  // queue+fetch= 3us
		Service:   10 * us, // chip+gc    = 5us
		CQEPost:   11 * us, // cqe        = 1us
		Complete:  13 * us, // delivery   = 2us
		FetchCost: fetchCost,
		GCWait:    gcWait,
	}
}

func TestConsumeSpanLayerMath(t *testing.T) {
	p := New("daredevil")
	p.ConsumeSpan(span("L", sim.Microsecond, 2*sim.Microsecond))
	pr := p.Profile()
	if len(pr.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(pr.Groups))
	}
	g := pr.Groups[0]
	if g.Stack != "daredevil" || g.Class != "L" || g.Requests != 1 {
		t.Fatalf("group identity wrong: %+v", g)
	}
	want := map[string]int64{
		"submit":     1000,
		"queue_wait": 2000, // 3us window minus 1us fetch
		"fetch":      1000,
		"chip":       3000, // 5us window minus 2us gc
		"gc":         2000,
		"cqe":        1000,
		"delivery":   2000,
	}
	var sum int64
	for _, l := range g.Layers {
		if l.Sum != want[l.Layer] {
			t.Errorf("layer %s sum = %d, want %d", l.Layer, l.Sum, want[l.Layer])
		}
		sum += l.Sum
	}
	if total := g.Total.Sum; sum != total {
		t.Fatalf("layer sums %d != total %d", sum, total)
	}
}

func TestConsumeSpanNilSafeAndSkips(t *testing.T) {
	var p *Profiler
	p.ConsumeSpan(span("L", 0, 0)) // nil profiler: no panic
	q := New("x")
	q.ConsumeSpan(nil)
	q.ConsumeSpan(&obs.Span{Class: "L"}) // never completed
	// Split parent: completed but never submitted, not failed.
	q.ConsumeSpan(&obs.Span{Class: "L", Issue: 1, Complete: 10})
	if got := q.Requests(); got != 0 {
		t.Fatalf("requests = %d, want 0", got)
	}
	// Failed pre-submit spans still count (partial ladder).
	q.ConsumeSpan(&obs.Span{Class: "L", Issue: 1, Complete: 10, Failed: true})
	if got := q.Requests(); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
	if q.Profile().Groups[0].Failed != 1 {
		t.Fatal("failed span not counted")
	}
}

func TestProfileCanonicalOrderAndMerge(t *testing.T) {
	a := New("daredevil")
	a.ConsumeSpan(span("T", 0, 0))
	a.ConsumeSpan(span("L", sim.Microsecond, 0))
	b := New("vanilla")
	b.ConsumeSpan(span("L", 0, sim.Microsecond))
	pa, pb := a.Profile(), b.Profile()

	// Groups sorted by (stack, class) regardless of consumption order.
	if pa.Groups[0].Class != "L" || pa.Groups[1].Class != "T" {
		t.Fatalf("groups not sorted: %s, %s", pa.Groups[0].Class, pa.Groups[1].Class)
	}
	ab := Merge(pa, pb)
	ba := Merge(pb, pa)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatal("profile merge not commutative")
	}
	if len(ab.Groups) != 3 || ab.Requests() != 3 {
		t.Fatalf("merged profile wrong shape: %d groups, %d requests", len(ab.Groups), ab.Requests())
	}
	// Same-key groups fold.
	aa := Merge(pa, pa)
	if len(aa.Groups) != 2 || aa.Requests() != 4 {
		t.Fatalf("self-merge wrong: %d groups, %d requests", len(aa.Groups), aa.Requests())
	}
	// MergeAll is argument-order independent.
	if !reflect.DeepEqual(MergeAll(pa, pb), MergeAll(pb, pa)) {
		t.Fatal("MergeAll order-dependent")
	}
}

func TestMergeDoesNotAliasInputs(t *testing.T) {
	a := New("s")
	a.ConsumeSpan(span("L", 0, 0))
	pa := a.Profile()
	m := Merge(pa, Profile{})
	m.Groups[0].Layers[0].Count = 999
	m.Groups[0].Layers[0].Buckets[0].Count = 999
	if pa.Groups[0].Layers[0].Count == 999 || pa.Groups[0].Layers[0].Buckets[0].Count == 999 {
		t.Fatal("merge aliased input digest state")
	}
}

func TestExports(t *testing.T) {
	p := New("daredevil")
	p.ConsumeSpan(span("L", sim.Microsecond, 0))
	p.ConsumeSpan(span("T", 0, 2*sim.Microsecond))
	pr := p.Profile()

	var table bytes.Buffer
	if err := pr.WriteBreakdownTable(&table); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stack", "daredevil", "queue_wait", "gc", "total"} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, table.String())
		}
	}

	var folded bytes.Buffer
	if err := pr.WriteFoldedStacks(&folded); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(folded.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no folded lines")
	}
	if want := "daredevil;L;submit 1000"; lines[0] != want {
		t.Fatalf("folded[0] = %q, want %q", lines[0], want)
	}
	for _, ln := range lines {
		parts := strings.Split(ln, " ")
		if len(parts) != 2 || strings.Count(parts[0], ";") != 2 {
			t.Fatalf("malformed folded line %q", ln)
		}
	}

	var js bytes.Buffer
	if err := pr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	back, err := ParseProfile(js.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, back) {
		t.Fatal("JSON round trip changed profile")
	}
}

func TestParseProfileRejectsInvalid(t *testing.T) {
	if _, err := ParseProfile([]byte(`{"groups":[{"stack":"s","class":"L","requests":1,"total":{"count":2,"sumNs":5}}]}`)); err == nil {
		t.Fatal("invalid digest accepted")
	}
	if _, err := ParseProfile([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestWallProfile(t *testing.T) {
	var w WallProfile
	if !w.Empty() {
		t.Fatal("zero wall profile not empty")
	}
	w.Add("warmup", 1000)
	w.Add("measure", 3000)
	w.Add("warmup", 500)
	w.Add("bogus", -1) // ignored
	if w.TotalNs() != 4500 || len(w.Components) != 2 {
		t.Fatalf("wall profile wrong: %+v", w)
	}
	var buf bytes.Buffer
	if err := w.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "warmup") || !strings.Contains(buf.String(), "total") {
		t.Fatalf("wall text missing rows:\n%s", buf.String())
	}
}
