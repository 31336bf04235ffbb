package main

import (
	"bytes"
	"fmt"
	"testing"
)

var lowerMs = metricDef{Name: "wall_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}

// around returns ten values spread evenly ±spread around m.
func around(m, spread float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = m * (1 + spread*(float64(i)-4.5)/4.5)
	}
	return xs
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name         string
		a, b         []float64
		won          int
		moreFailures bool
		want         string
	}{
		{"same code", around(100, 0.02), around(100.5, 0.02), 5, false, unchanged},
		{"within the bound", around(100, 0.02), around(108, 0.02), 0, false, unchanged},
		{"past the bound", around(100, 0.02), around(115, 0.02), 0, false, worse},
		{"faster in every pair", around(100, 0.02), around(90, 0.02), 10, false, improved},
		{"faster but more failures", around(100, 0.02), around(90, 0.02), 10, true, unchanged},
		{"faster in 8 of 10 pairs", around(100, 0.02), around(97, 0.02), 8, false, unchanged},
		{"spread wider than the bound", around(100, 0.4), around(101, 0.4), 5, false, unresolved},
	} {
		if got := judge(lowerMs, tc.a, tc.b, tc.won, 10, tc.moreFailures); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1}
	if got := judge(higher, around(100, 0.02), around(80, 0.02), 0, 10, false); got != worse {
		t.Errorf("higher-is-better drop: judge = %s, want worse", got)
	}
}

// A saved run output parses back into the result it printed, and
// compareRuns pairs runs by seed across the two sides.
func TestCompareSavedRuns(t *testing.T) {
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	save := func(workload string, seed uint64, scale float64) savedRun {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "bench: workload=%s seed=%d seconds=10 trace=0\n", workload, seed)
		metrics := map[string]metricValue{}
		for _, d := range spec.EndToEnd {
			metrics[d.Name] = metricValue{Value: scale * (100 + float64(seed)), Unit: d.Unit}
		}
		if err := writeResult(&buf, result{Correct: true, Attempted: 5, Metrics: metrics}); err != nil {
			t.Fatal(err)
		}
		s, err := parseRun(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if s.workload != workload || s.seed != seed || s.res.Attempted != 5 {
			t.Fatalf("parsed %+v", s)
		}
		return s
	}
	var a, b []savedRun
	for seed := uint64(1); seed <= 10; seed++ {
		a = append(a, save("cell-steady", seed, 1))
		b = append(b, save("cell-steady", 11-seed, 2)) // reversed order, twice as slow
	}
	rows := compareRuns(spec, a, b)
	if len(rows) != len(spec.EndToEnd) {
		t.Fatalf("got %d rows, want one per end-to-end metric (%d)", len(rows), len(spec.EndToEnd))
	}
	for _, r := range rows {
		if r.Verdict != worse || r.Pairs != 10 || r.Won != 0 {
			t.Errorf("%s: verdict %s with %d/%d pairs won, want worse with 0/10", r.Metric, r.Verdict, r.Won, r.Pairs)
		}
	}
}
