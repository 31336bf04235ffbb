package ftl

import (
	"testing"

	"daredevil/internal/flash"
	"daredevil/internal/sim"
)

// BenchmarkAgedGCStep times background GC on the aged default device at
// OP 15% (4 GiB, 128 dies), one engine event per op: nearly every event is
// a relocation step of GCBatchPages pages, the rest start the next round
// at an erase's completion. The watermarks are raised past the block
// count, so every die collects until nothing is reclaimable; a device
// that runs dry is rebuilt off the clock.
func BenchmarkAgedGCStep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.OPPct = 15
	var moved uint64
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		eng := sim.New()
		d := New(eng, flash.New(flash.DefaultConfig()), cfg)
		d.lowWater, d.highWater = cfg.BlocksPerDie+1, cfg.BlocksPerDie+2
		for die := range d.dies {
			d.maybeGC(die)
		}
		moved0 := d.Stats().GCPagesMoved
		b.StartTimer()
		for done < b.N && eng.Step() {
			done++
		}
		moved += d.Stats().GCPagesMoved - moved0
	}
	b.ReportMetric(float64(moved)/float64(b.N), "pages/op")
}
