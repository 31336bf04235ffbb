package ftl

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"daredevil/internal/fault"
	"daredevil/internal/flash"
	"daredevil/internal/sim"
)

// stateHash digests the FTL's internal state: every live l2p entry, each
// block's valid count, erase count and retired flag, every die's free
// list in order, the counters and the GC-pause distribution.
func stateHash(d *Device) uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for lp, pp := range d.l2p {
		if pp >= 0 {
			put(int64(lp), int64(pp))
		}
	}
	for i := range d.blocks {
		m := &d.blocks[i]
		retired := int64(0)
		if m.retired {
			retired = 1
		}
		put(int64(m.valid), int64(m.erases), retired)
	}
	for i := range d.dies {
		put(-1, int64(len(d.dies[i].free)))
		for _, b := range d.dies[i].free {
			put(int64(b))
		}
	}
	st := d.Stats()
	put(int64(st.HostPagesWritten), int64(st.FlashPagesWritten), int64(st.HostPagesRead),
		int64(st.GCRuns), int64(st.GCPagesMoved), int64(st.Erases), int64(st.TrimmedPages),
		int64(st.ForegroundGCs), int64(st.ProgramFailures), int64(st.GrownBadBlocks))
	p := &d.GCPauses
	put(int64(p.Count()), int64(p.Min()), int64(p.Max()), int64(p.Mean()),
		int64(p.Quantile(0.5)), int64(p.Quantile(0.99)))
	return h.Sum64()
}

// pinStream runs a seeded stream of writes, TRIMs and reads at advancing
// instants, so background GC rounds interleave with foreground traffic
// (and, when the dies run out of clean space, foreground GC takes rounds
// over). Ranges span up to four pages and may start past the logical
// space, so the fold and its wrap are exercised. Every completion instant
// the FTL reports goes into h, then the engine drains.
func pinStream(eng *sim.Engine, d *Device, seed uint64, ops int, h hash.Hash64) {
	rng := sim.NewRand(seed)
	pageSize := d.media.Config().PageSize
	at := eng.Now()
	var b [8]byte
	for i := 0; i < ops; i++ {
		at = at.Add(sim.Duration(rng.Int63n(int64(400 * sim.Microsecond))))
		eng.RunUntil(at)
		lp := rng.Int63n(3 * d.LogicalPages())
		pages := 1 + rng.Int63n(4)
		var v int64
		switch r := rng.Intn(10); {
		case r < 7:
			v = int64(d.SubmitIO(eng.Now(), lp*pageSize, pages*pageSize, flash.Program))
		case r < 9:
			v = int64(d.Trim(lp*pageSize, 2*pages*pageSize))
		default:
			v = int64(d.SubmitIO(eng.Now(), lp*pageSize, pages*pageSize, flash.Read))
		}
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	eng.Run()
	binary.LittleEndian.PutUint64(b[:], uint64(eng.Now()))
	h.Write(b[:])
}

// pinGeometry is one of the geometries the FTL's state is pinned on.
type pinGeometry struct {
	name     string
	cfg      func() Config
	failProb float64 // program-failure probability of its fault injector
}

// pinGeometries are the greedy default, cost-benefit victim selection, and
// a non-power-of-two block size with program failures growing bad blocks.
func pinGeometries() []pinGeometry {
	return []pinGeometry{
		{"greedy", smallFTL, 0},
		{"cost-benefit", func() Config {
			c := smallFTL()
			c.Policy = CostBenefit
			return c
		}, 0},
		{"ppb24-faults", func() Config {
			c := smallFTL()
			c.PagesPerBlock = 24
			return c
		}, 0.01},
	}
}

// newPinned builds the geometry's device and attaches its fault injector.
func newPinned(t *testing.T, g pinGeometry) (*sim.Engine, *Device) {
	t.Helper()
	eng, d := newSmall(t, g.cfg())
	if g.failProb > 0 {
		d.AttachFault(fault.NewInjector(fault.Schedule{Seed: 3, ProgramFailProb: g.failProb}))
	}
	return eng, d
}

// TestFTLStatePinned pins the FTL's mapping, block, free-list and GC
// state after preconditioning and after a seeded write/TRIM stream, on
// the three pinGeometries. The experiment goldens only reach greedy with
// 64-page blocks; this is what catches a mapping or GC drift on the other
// paths.
func TestFTLStatePinned(t *testing.T) {
	geos := pinGeometries()
	cases := []struct {
		pinGeometry
		aged, streamed uint64
		timings        uint64
	}{
		{geos[0], 0xbe92b59285463577, 0x08a85e85f60f181c, 0xbc507175e166d2f4},
		{geos[1], 0xbe92b59285463577, 0xc3d51603a595e0dc, 0x7182d29cc822e8f2},
		{geos[2], 0x580e950712044180, 0x6a230503dffc34ce, 0x16ab525e271cac7e},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, d := newPinned(t, c.pinGeometry)
			if got := stateHash(d); got != c.aged {
				t.Errorf("after preconditioning: state hash %#x, want %#x", got, c.aged)
			}
			th := fnv.New64a()
			pinStream(eng, d, 0x5eed, 3000, th)
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("invariants after the stream: %v", err)
			}
			if d.Stats().GCRuns == 0 || d.Stats().TrimmedPages == 0 {
				t.Fatalf("the stream must drive GC and TRIM: %+v", d.Stats())
			}
			if c.failProb > 0 && d.Stats().GrownBadBlocks == 0 {
				t.Fatalf("the fault geometry grew no bad block: %+v", d.Stats())
			}
			if got := stateHash(d); got != c.streamed {
				t.Errorf("after the stream: state hash %#x, want %#x", got, c.streamed)
			}
			if got := th.Sum64(); got != c.timings {
				t.Errorf("stream completion instants hash %#x, want %#x", got, c.timings)
			}
		})
	}
}

// TestFTLMediaAccounting checks the FTL's counters against the media's
// own, across the layer boundary, on the pinGeometries: preconditioning
// issues no media work, and after the pinned stream every page the media
// programmed, read or erased is one the FTL accounts for — host and GC
// programs plus failed attempts, host reads plus GC relocation reads, and
// victim erases.
func TestFTLMediaAccounting(t *testing.T) {
	for _, g := range pinGeometries() {
		t.Run(g.name, func(t *testing.T) {
			eng, d := newPinned(t, g)
			if fl := d.media.Stats(); fl != (flash.Stats{}) {
				t.Fatalf("preconditioning issued media work: %+v", fl)
			}
			pinStream(eng, d, 0x5eed, 3000, fnv.New64a())
			fl, st := d.media.Stats(), d.Stats()
			if st.GCPagesMoved == 0 || st.HostPagesRead == 0 || (g.failProb > 0 && st.ProgramFailures == 0) {
				t.Fatalf("the stream must drive GC relocation, host reads and (with faults) program failures: %+v", st)
			}
			if fl.PagesWritten != st.FlashPagesWritten+st.ProgramFailures {
				t.Errorf("media programmed %d pages, FTL accounts for %d (%d flash pages written + %d failed programs)",
					fl.PagesWritten, st.FlashPagesWritten+st.ProgramFailures, st.FlashPagesWritten, st.ProgramFailures)
			}
			if fl.PagesRead != st.HostPagesRead+st.GCPagesMoved {
				t.Errorf("media read %d pages, FTL accounts for %d (%d host + %d GC relocation reads)",
					fl.PagesRead, st.HostPagesRead+st.GCPagesMoved, st.HostPagesRead, st.GCPagesMoved)
			}
			if fl.Erases != st.Erases {
				t.Errorf("media erased %d blocks, FTL counts %d", fl.Erases, st.Erases)
			}
		})
	}
}
