package ftl

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"daredevil/internal/flash"
	"daredevil/internal/sim"
)

// fullFTL is smallFTL at the smallest OP with no scramble: preconditioning
// stops at the fill capacity with every written block fully valid, so GC
// finds no victim until something is trimmed.
func fullFTL() Config {
	c := smallFTL()
	c.OPPct = 2
	c.ScramblePct = 0
	return c
}

// fillToReserve writes fresh logical pages until no die can take a host
// write: every die is left at one free block with a full active block and
// no victim, so its GC is off below the low watermark and only a TRIM can
// restart it.
func fillToReserve(t *testing.T, eng *sim.Engine, d *Device) {
	t.Helper()
	pageSize := d.media.Config().PageSize
	lp := d.ValidPages()
	for canAlloc := true; canAlloc; lp++ {
		d.SubmitIO(eng.Now(), lp*pageSize, pageSize, flash.Program)
		canAlloc = false
		for die := range d.dies {
			canAlloc = canAlloc || d.hostCanAlloc(die)
		}
	}
	eng.Run()
	for die := range d.dies {
		if ds := &d.dies[die]; ds.gcOn || len(ds.free) >= d.lowWater {
			t.Fatalf("die %d after the fill: gcOn=%v, %d free blocks", die, ds.gcOn, len(ds.free))
		}
	}
}

// TestSameInstantDeallocatesStayApart issues two Deallocates at one instant
// from two events, with a third event scheduled between their wakes that
// trims one more page on a die of the second batch. Every die starts with
// GC off below the low watermark, so each wake starts the GC rounds of its
// batch. The order GC starts in (within an event, by the relocation
// counter each round starts at) and the final FTL state are pinned at the
// values the per-die wake events produced; draining more than one batch per
// wake, or any batch out of order, moves both.
func TestSameInstantDeallocatesStayApart(t *testing.T) {
	eng, d := newSmall(t, fullFTL())
	fillToReserve(t, eng, d)
	pageSize := d.media.Config().PageSize
	trim := func(lp, pages int64) { d.Trim(lp*pageSize, pages*pageSize) }

	// Preconditioning put logical page j on die (j+1) mod 8.
	var order []string
	mid := func() {
		order = append(order, "X")
		trim(20, 1) // die 5, the block of page 12 below
	}
	at := sim.Time(10 * sim.Millisecond)
	eng.At(at, func() {
		trim(6, 4) // dies 7, 0, 1, 2
		eng.At(eng.Now(), mid)
	})
	eng.At(at, func() { trim(11, 3) }) // dies 4, 5, 6

	on := make([]bool, len(d.dies))
	for eng.Step() {
		var started []int
		for die := range d.dies {
			if d.dies[die].gcOn && !on[die] {
				started = append(started, die)
			}
			on[die] = d.dies[die].gcOn
		}
		sort.SliceStable(started, func(i, j int) bool {
			return d.dies[started[i]].gcMoved0 < d.dies[started[j]].gcMoved0
		})
		for _, die := range started {
			order = append(order, fmt.Sprint(die))
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "7 0 1 2 X 4 5 6"; got != want {
		t.Errorf("GC start order %q, want %q", got, want)
	}
	if got, want := stateHash(d), uint64(0x5689b17eef399267); got != want {
		t.Errorf("state hash %#x, want %#x", got, want)
	}
}

// TestCheckInvariantsCatchesStrandedWake checks that a TRIM wake batch
// left in the FIFO once the engine has nothing pending is reported: its
// dies would never get their GC wake-up.
func TestCheckInvariantsCatchesStrandedWake(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	d.Trim(0, 8*d.media.Config().PageSize)
	if eng.Pending() == 0 || len(d.wakeQ) == 0 {
		t.Fatalf("the Trim scheduled no wake (pending %d, FIFO %v)", eng.Pending(), d.wakeQ)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("pending wake reported: %v", err)
	}
	eng.Run()
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("after the wake fired: %v", err)
	}
	d.wakeQ = append(d.wakeQ, 3, wakeEnd)
	if err := d.CheckInvariants(); err == nil {
		t.Fatal("a stranded wake batch passed CheckInvariants")
	}
}
