package harness

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"daredevil/internal/sim"
)

// tinyScale keeps the determinism experiment fast enough for -race -short.
var tinyScale = Scale{Warmup: 10 * sim.Millisecond, Measure: 30 * sim.Millisecond}

// TestRunnerParallelMatchesSerial is the regression test the fan-out rests
// on: every registered experiment run with -j 1 must encode to the same
// JSON bytes as the same experiment run with -j 8. Each cell owns its own
// engine and RNG, so the worker count can only change wall-clock time,
// never results.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	defer SetParallelism(Parallelism())
	encode := func(e Experiment, workers int) []byte {
		SetParallelism(workers)
		data, err := json.MarshalIndent(e.Run(tinyScale), "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		return data
	}
	for _, e := range Experiments {
		serial, parallel := encode(e, 1), encode(e, 8)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s differs between -j 1 and -j 8:\nserial:   %s\nparallel: %s", e.Name, serial, parallel)
		}
	}
}

// TestRunCellsOrderAndCoverage checks the assembly contract: results land
// at their cell's index regardless of completion order, every cell runs
// exactly once, and no index is visited twice.
func TestRunCellsOrderAndCoverage(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(8)

	const n = 100
	var runs [n]atomic.Int32
	got := RunCells(n, func(i int) int {
		runs[i].Add(1)
		return i * i
	})
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d (results must assemble in cell order)", i, v, i*i)
		}
		if c := runs[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times, want exactly once", i, c)
		}
	}
}

// TestRunCellsZeroAndSingle covers the degenerate widths.
func TestRunCellsZeroAndSingle(t *testing.T) {
	if got := RunCells(0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("RunCells(0) = %v, want empty", got)
	}
	if got := RunCells(1, func(i int) string { return "only" }); len(got) != 1 || got[0] != "only" {
		t.Fatalf("RunCells(1) = %v", got)
	}
}

// TestRunnerPanicPropagates checks that a panicking cell reaches the
// caller instead of killing a worker goroutine (which would crash the
// process with no stack pointing at the experiment).
func TestRunnerPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in a cell must propagate to the caller")
		}
	}()
	NewRunner(4).Run(8, func(i int) {
		if i == 5 {
			panic("cell blew up")
		}
	})
}

// TestSetParallelismRejectsNonPositive pins the validation panic ddbench's
// flag handling relies on never reaching.
func TestSetParallelismRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetParallelism(%d) must panic", n)
				}
			}()
			SetParallelism(n)
		}()
	}
	if Parallelism() < 1 {
		t.Fatalf("Parallelism() = %d after rejected calls, want unchanged >= 1", Parallelism())
	}
}
