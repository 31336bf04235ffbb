package main

import "testing"

// The calibration links form one cycle through every slot, so a walk never
// settles into a short loop that the caches would hold.
func TestCalibrationLinksAreOneCycle(t *testing.T) {
	next, err := calLinks()
	if err != nil {
		t.Fatal(err)
	}
	p := next[0]
	for step := 1; step < calSlots; step++ {
		if p == 0 {
			t.Fatalf("walk returned to slot 0 after %d of %d steps", step, calSlots)
		}
		p = next[p]
	}
	if p != 0 {
		t.Fatalf("walk did not return to slot 0 after %d steps", calSlots)
	}
}

func TestCalibrationScale(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	if s := c.scale(); s != 1 {
		t.Errorf("scale with no walks = %v, want 1", s)
	}
	c.walks = []float64{5, 20, 20}
	if s := c.scale(); s != 0.5 {
		t.Errorf("scale with a median walk of 20 ms = %v, want 0.5", s)
	}
}
