package sim

import (
	"testing"
	"testing/quick"
)

func TestFIFOResUncontended(t *testing.T) {
	var r FIFORes
	grant, wait := r.Acquire(100, 10)
	if grant != 100 || wait != 0 {
		t.Fatalf("uncontended acquire: grant=%v wait=%v, want 100/0", grant, wait)
	}
	if r.FreeAt() != 110 {
		t.Fatalf("FreeAt = %v, want 110", r.FreeAt())
	}
}

func TestFIFOResContended(t *testing.T) {
	var r FIFORes
	r.Acquire(0, 100)
	grant, wait := r.Acquire(30, 10)
	if grant != 100 || wait != 70 {
		t.Fatalf("contended acquire: grant=%v wait=%v, want 100/70", grant, wait)
	}
}

func TestFIFOResChain(t *testing.T) {
	var r FIFORes
	// Three holders arriving at the same instant serialize back-to-back.
	g1, _ := r.Acquire(0, 5)
	g2, _ := r.Acquire(0, 5)
	g3, _ := r.Acquire(0, 5)
	if g1 != 0 || g2 != 5 || g3 != 10 {
		t.Fatalf("grants = %v,%v,%v, want 0,5,10", g1, g2, g3)
	}
}

func TestFIFOResBusy(t *testing.T) {
	var r FIFORes
	r.Acquire(0, 50)
	if !r.Busy(25) {
		t.Fatal("resource should be busy at t=25")
	}
	if r.Busy(50) {
		t.Fatal("resource should be free at t=50")
	}
}

func TestFIFOResNegativeHoldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative hold must panic")
		}
	}()
	var r FIFORes
	r.Acquire(0, -1)
}

// Property: for any sequence of (arrival, hold) pairs with non-decreasing
// arrivals, grants never overlap and each grant >= arrival.
func TestFIFOResNoOverlapProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		var r FIFORes
		now := Time(0)
		lastEnd := Time(0)
		for i := 0; i+1 < len(raw); i += 2 {
			now = now.Add(Duration(raw[i]))
			hold := Duration(raw[i+1])
			grant, wait := r.Acquire(now, hold)
			if grant < now || wait != grant.Sub(now) {
				return false
			}
			if grant < lastEnd {
				return false // overlapping holds
			}
			lastEnd = grant.Add(hold)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
