package daredevil

import (
	"testing"

	"daredevil/internal/flash"
	"daredevil/internal/ftl"
	"daredevil/internal/sim"
)

// FuzzParseScenario ensures scenario parsing never panics and that every
// accepted scenario builds a runnable simulation.
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(`{"jobs":[{"name":"x","class":"L","count":1}]}`))
	f.Add([]byte(`{"machine":"wsm","stack":"vanilla","jobs":[{"name":"t","class":"T","count":2}]}`))
	f.Add([]byte(`{"namespaces":3,"jobs":[{"name":"a","class":"L","count":1,"namespace":2}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"jobs":[{"name":"x","class":"L","count":1,"arrivalUs":100,"bs":8192}]}`))
	f.Add([]byte(`{"ftl":true,"opPct":15,"scramblePct":10,"jobs":[{"name":"t","class":"T","count":1,"trimEvery":4}]}`))
	f.Add([]byte(`{"opPct":15,"jobs":[{"name":"t","class":"T","count":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted scenarios must build — unless they carry sweep axes,
		// which only ddserve expands into cells.
		if _, _, _, err := BuildScenario(sc); err != nil && len(sc.Sweep) == 0 {
			t.Fatalf("accepted scenario failed to build: %v\n%s", err, data)
		}
	})
}

// FuzzFTLMapping drives two small FTL-backed devices with a fuzz-chosen
// interleaving of writes, TRIMs, and reads, letting the background GC chains
// run between operations, and asserts the mapping-table invariants (L2P/P2L
// consistency, the live bitmap, per-block valid counts, free-list integrity,
// GC continuation records back in their pool) after every step. The second
// device has 24-page blocks, so the index arithmetic is checked off the
// power-of-two geometry too. The input tape is consumed in 3-byte records:
// opcode, then a 16-bit logical-page selector; the opcode's high bits size
// multi-page ranges so TRIMs and writes cross block boundaries.
func FuzzFTLMapping(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 0, 2})
	f.Add([]byte{0, 0x12, 0x34, 0x41, 0x12, 0x34, 0x80, 0x12, 0x34})
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x00, 0xff, 0x41, 0x00, 0xff})
	seq := make([]byte, 0, 192)
	for i := 0; i < 64; i++ {
		seq = append(seq, byte(i%3)<<6, byte(i>>8), byte(i))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 512
		if len(data) > 3*maxOps {
			data = data[:3*maxOps]
		}
		type dev struct {
			eng *sim.Engine
			d   *ftl.Device
		}
		var devs []dev
		for _, ppb := range []int{16, 24} {
			eng := sim.New()
			d := ftl.New(eng, flash.New(flash.Config{
				Channels:        4,
				ChipsPerChannel: 2,
				PageSize:        4096,
				ReadLatency:     70 * sim.Microsecond,
				ProgramLatency:  420 * sim.Microsecond,
				XferLatency:     3 * sim.Microsecond,
				EraseLatency:    2 * sim.Millisecond,
			}), ftl.Config{
				PagesPerBlock:   ppb,
				BlocksPerDie:    16,
				OPPct:           30,
				GCBatchPages:    4,
				PreconditionPct: 100,
				ScramblePct:     30,
				Seed:            7,
			})
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("ppb=%d: invariants broken after preconditioning: %v", ppb, err)
			}
			devs = append(devs, dev{eng, d})
		}
		pageSize := int64(4096)
		for len(data) >= 3 {
			op, hi, lo := data[0], data[1], data[2]
			data = data[3:]
			for _, v := range devs {
				eng, d := v.eng, v.d
				lp := (int64(hi)<<8 | int64(lo)) % d.LogicalPages()
				pages := int64(op>>4)%4 + 1 // 1..4 pages per operation
				off, size := lp*pageSize, pages*pageSize
				switch op % 3 {
				case 0:
					d.SubmitIO(eng.Now(), off, size, flash.Program)
				case 1:
					d.Trim(off, size)
				case 2:
					d.SubmitIO(eng.Now(), off, size, flash.Read)
				}
				eng.Run() // drain GC chains and deferred trim wake-ups
				if err := d.CheckInvariants(); err != nil {
					t.Fatalf("ppb=%d: invariants broken after op %d (lp=%d pages=%d): %v",
						d.Config().PagesPerBlock, op%3, lp, pages, err)
				}
			}
		}
		// The devices must stay conservative: mapped pages never exceed the
		// logical space, free blocks never exceed physical blocks.
		for _, v := range devs {
			if v.d.ValidPages() > v.d.LogicalPages() {
				t.Fatalf("ppb=%d: %d valid pages exceed logical capacity %d",
					v.d.Config().PagesPerBlock, v.d.ValidPages(), v.d.LogicalPages())
			}
		}
	})
}
