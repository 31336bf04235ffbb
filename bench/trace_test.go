package main

import (
	"math"
	"os"
	"testing"
)

func TestFoldTopByPackage(t *testing.T) {
	top, err := os.ReadFile("testdata/top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 0.40, "runtime": 0.20, "stack": 0.10, "obs": 0.10, "other": 0.15, "harness": 0.05,
	}
	for _, b := range cpuBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("cpu_share.%s = %v, want %v", b, shares[b], want[b])
		}
	}
	if _, err := foldTop([]byte("no table here\n")); err == nil {
		t.Error("foldTop accepted output without a flat/flat% table")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, pkg := range map[string]string{
		"daredevil/internal/sim.(*Engine).RunUntil": "daredevil/internal/sim",
		"runtime.mallocgc":                          "runtime",
		"runtime.memmove (inline)":                  "runtime",
		"daredevil/internal/harness.RunCells[go.shape.struct { a/b.C }].func1": "daredevil/internal/harness",
		"net/http.(*conn).serve": "net/http",
		"main.main":              "main",
	} {
		if got := packageOf(fn); got != pkg {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, pkg)
		}
	}
}
