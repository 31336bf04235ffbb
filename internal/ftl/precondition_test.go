package ftl

import (
	"fmt"
	"slices"
	"testing"

	"daredevil/internal/flash"
	"daredevil/internal/sim"
)

// refPrecondition is the page-at-a-time preconditioning the closed form in
// precondition replaces: the fill and the scramble go through the real
// allocator (die search, allocPage, openBlock) one page at a time, with GC
// suppressed. It is the reference TestPreconditionMatchesReference and
// FuzzPrecondition hold precondition to.
func refPrecondition(d *Device) {
	fill := d.logPages * int64(d.cfg.PreconditionPct) / 100
	for lp := int64(0); lp < fill; lp++ {
		if !refPreWrite(d, lp) {
			break // out of clean space; the filled prefix stands
		}
	}
	if d.cfg.ScramblePct > 0 && fill > 0 {
		rng := sim.NewRand(d.cfg.Seed + 0xa9ed)
		n := fill * int64(d.cfg.ScramblePct) / 100
		for i := int64(0); i < n; i++ {
			if !refPreWrite(d, rng.Int63n(fill)) {
				break
			}
		}
	}
}

// refPreWrite maps one logical page on the first die, in round-robin
// order, whose host active block has room or that holds more than
// highWater free blocks. It reports false when no die can take the page.
func refPreWrite(d *Device, lp int64) bool {
	die := d.allocRR
	for i := 0; i < d.numDies; i++ {
		die = d.nextDie(die)
		ds := &d.dies[die]
		if (ds.active >= 0 && ds.writePtr < d.ppb) || len(ds.free) > d.highWater {
			d.allocRR = die
			pp, blk := d.allocPage(die, 0, false)
			if old := d.l2p[lp]; old >= 0 {
				d.unmapPhys(old)
			}
			d.mapPage(int32(lp), pp, blk)
			return true
		}
	}
	return false
}

// precondFlash is a flash geometry with the given die count.
func precondFlash(dies int) flash.Config {
	c := smallFlash()
	c.Channels, c.ChipsPerChannel = dies, 1
	return c
}

// diffPrecondition builds cfg with New and with the reference applied to a
// device built unpreconditioned, and describes the first difference in
// their mapping, block, die and cursor state ("" when they match).
func diffPrecondition(dies int, cfg Config) string {
	got := New(sim.New(), flash.New(precondFlash(dies)), cfg)
	bare := cfg
	bare.PreconditionPct = 0
	want := New(sim.New(), flash.New(precondFlash(dies)), bare)
	want.cfg = cfg
	refPrecondition(want)

	if !slices.Equal(got.l2p, want.l2p) {
		return "l2p differs"
	}
	if !slices.Equal(got.live, want.live) {
		return "live bitmap differs"
	}
	for pp := int32(0); int64(pp) < want.physPages; pp++ {
		if want.isLive(pp) && got.p2l[pp] != want.p2l[pp] {
			return fmt.Sprintf("p2l[%d] = %d, want %d", pp, got.p2l[pp], want.p2l[pp])
		}
	}
	for b := range want.blocks {
		if got.blocks[b] != want.blocks[b] {
			return fmt.Sprintf("block %d = %+v, want %+v", b, got.blocks[b], want.blocks[b])
		}
	}
	for k := range want.dies {
		g, w := &got.dies[k], &want.dies[k]
		if g.active != w.active || g.writePtr != w.writePtr || g.gcActive != w.gcActive || g.gcPtr != w.gcPtr {
			return fmt.Sprintf("die %d: active %d/%d gcActive %d/%d, want %d/%d %d/%d",
				k, g.active, g.writePtr, g.gcActive, g.gcPtr, w.active, w.writePtr, w.gcActive, w.gcPtr)
		}
		if !slices.Equal(g.free, w.free) || cap(g.free) != cap(w.free) {
			return fmt.Sprintf("die %d: free %v (cap %d), want %v (cap %d)", k, g.free, cap(g.free), w.free, cap(w.free))
		}
	}
	if got.allocRR != want.allocRR {
		return fmt.Sprintf("allocRR = %d, want %d", got.allocRR, want.allocRR)
	}
	return ""
}

// precondCase is a configuration the comparison can build: a valid
// Config with a positive logical capacity.
func precondCase(dies int, cfg Config) bool {
	if cfg.Validate() != nil {
		return false
	}
	phys := int64(dies) * int64(cfg.BlocksPerDie) * int64(cfg.PagesPerBlock)
	return phys*int64((100-cfg.OPPct)*100)/10000 > 0
}

// TestPreconditionMatchesReference checks the closed-form preconditioning
// against the page-at-a-time reference over a grid of geometries: single
// and odd die counts, one-page and non-power-of-two blocks, devices the
// fill cannot complete, scrambles the spare cuts short, and high
// watermarks at or past the die size, where the device takes no
// preconditioning write at all.
func TestPreconditionMatchesReference(t *testing.T) {
	cases := 0
	for _, dies := range []int{1, 2, 3, 4, 8} {
		for _, ppb := range []int{1, 5, 16, 24} {
			for _, bpd := range []int{3, 4, 7, 16} {
				for _, op := range []float64{2, 7, 30, 90} {
					for _, pre := range []int{0, 1, 37, 100} {
						for _, scr := range []int{0, 30, 100} {
							for _, hw := range []int{0, bpd, bpd + 2} {
								cfg := Config{PagesPerBlock: ppb, BlocksPerDie: bpd, OPPct: op,
									GCHighWater: hw, PreconditionPct: pre, ScramblePct: scr,
									Seed: uint64(cases)}
								if !precondCase(dies, cfg) {
									continue
								}
								cases++
								if diff := diffPrecondition(dies, cfg); diff != "" {
									t.Fatalf("dies=%d %+v: %s", dies, cfg, diff)
								}
							}
						}
					}
				}
			}
		}
	}
	if cases < 10000 {
		t.Fatalf("only %d configurations compared", cases)
	}
}

// FuzzPrecondition draws the same configuration fields as
// TestPreconditionMatchesReference and holds the closed form to the
// reference on each.
func FuzzPrecondition(f *testing.F) {
	f.Add(uint8(1), uint8(16), uint8(16), uint8(30), uint8(100), uint8(30), uint8(0), uint8(0), uint64(7))
	f.Add(uint8(3), uint8(5), uint8(7), uint8(7), uint8(37), uint8(100), uint8(0), uint8(1), uint64(1))
	f.Add(uint8(2), uint8(1), uint8(3), uint8(90), uint8(100), uint8(100), uint8(2), uint8(3), uint64(2))
	f.Add(uint8(8), uint8(24), uint8(4), uint8(2), uint8(1), uint8(0), uint8(0), uint8(4), uint64(3))
	f.Fuzz(func(t *testing.T, dies, ppb, bpd, op, pre, scr, lw, hw uint8, seed uint64) {
		cfg := Config{
			PagesPerBlock:   1 + int(ppb)%32,
			BlocksPerDie:    3 + int(bpd)%30,
			OPPct:           float64(2 + int(op)%89),
			GCLowWater:      int(lw) % 8,
			GCHighWater:     int(hw) % 40,
			PreconditionPct: int(pre) % 101,
			ScramblePct:     int(scr) % 101,
			Seed:            seed,
		}
		n := 1 + int(dies)%12
		if !precondCase(n, cfg) {
			return
		}
		if diff := diffPrecondition(n, cfg); diff != "" {
			t.Fatalf("dies=%d %+v: %s", n, cfg, diff)
		}
	})
}
