package nvme

import (
	"fmt"
	"math/bits"
)

// Arbitration selects the controller's command arbitration mechanism. The
// paper assumes the default round-robin "for generalizability" (§2.1); the
// NVMe specification also defines weighted round robin with urgent priority
// class, which prior work (Joshi et al., HotStorage '17) exposed through
// the block layer. Both are implemented so the WRR ablation bench can
// quantify what Daredevil gains when the hardware cooperates.
type Arbitration uint8

// Arbitration mechanisms.
const (
	// ArbRoundRobin is the NVMe default: all submission queues are equal.
	ArbRoundRobin Arbitration = iota
	// ArbWeightedRoundRobin serves urgent-class queues strictly first,
	// then cycles high→medium→low with per-class credit weights.
	ArbWeightedRoundRobin
)

// QueueClass is an NSQ's WRR priority class.
type QueueClass uint8

// WRR queue classes.
const (
	ClassUrgent QueueClass = iota
	ClassHigh
	ClassMedium
	ClassLow
	// numClasses sizes the per-class arbitration state.
	numClasses = iota
)

// String names the class.
func (c QueueClass) String() string {
	switch c {
	case ClassUrgent:
		return "urgent"
	case ClassHigh:
		return "high"
	case ClassMedium:
		return "medium"
	default:
		return "low"
	}
}

// WRRWeights are the per-class credits (commands fetched per class visit)
// for high, medium, low. Urgent is strict-priority and needs no weight.
type WRRWeights struct {
	High   int
	Medium int
	Low    int
}

// DefaultWRRWeights mirrors common controller defaults.
func DefaultWRRWeights() WRRWeights { return WRRWeights{High: 8, Medium: 4, Low: 1} }

func (w WRRWeights) validate() error {
	if w.High <= 0 || w.Medium <= 0 || w.Low <= 0 {
		return fmt.Errorf("nvme: WRR weights must be positive: %+v", w)
	}
	return nil
}

// SetClass assigns the NSQ's WRR class (ignored under round-robin
// arbitration). A queue with visible entries moves its ready bit to the
// new class.
func (q *NSQ) SetClass(c QueueClass) {
	ready := q.visible > 0
	q.dev.setReady(q, false)
	q.class = c
	q.dev.setReady(q, ready)
}

// Class reports the NSQ's WRR class.
func (q *NSQ) Class() QueueClass { return q.class }

// nextWRR picks the next NSQ under weighted round robin: any urgent queue
// first (strict), then the current weighted class while its credits last.
func (d *Device) nextWRR() *NSQ {
	// Urgent: strict priority, round-robin among urgent queues.
	if q := d.scanClass(ClassUrgent); q != nil {
		return q
	}
	// Weighted classes: spend the current class's credits, then rotate.
	for tries := 0; tries < 3; tries++ {
		class := wrrOrder[d.wrrClass]
		if d.wrrCredit > 0 {
			if q := d.scanClass(class); q != nil {
				d.wrrCredit--
				return q
			}
		}
		d.wrrClass = (d.wrrClass + 1) % len(wrrOrder)
		d.wrrCredit = d.weightOf(wrrOrder[d.wrrClass])
	}
	return nil
}

var wrrOrder = []QueueClass{ClassHigh, ClassMedium, ClassLow}

func (d *Device) weightOf(c QueueClass) int {
	switch c {
	case ClassHigh:
		return d.cfg.WRR.High
	case ClassMedium:
		return d.cfg.WRR.Medium
	default:
		return d.cfg.WRR.Low
	}
}

// scanClass returns the next NSQ of the class with visible entries,
// round-robin within the class: the class's ready bitmap searched from the
// bit after the class's last pick, wrapping.
//
//ddvet:hotpath
func (d *Device) scanClass(c QueueClass) *NSQ {
	i := nextReady(d.classReady[c], d.classRR[c]+1)
	if i < 0 {
		return nil
	}
	d.classRR[c] = i
	return d.nsqs[i]
}

// setReady sets or clears q's bit in the ready bitmap and its class's.
//
//ddvet:hotpath
func (d *Device) setReady(q *NSQ, on bool) {
	w, bit := q.ID>>6, uint64(1)<<(q.ID&63)
	if on {
		d.ready[w] |= bit
		d.classReady[q.class][w] |= bit
	} else {
		d.ready[w] &^= bit
		d.classReady[q.class][w] &^= bit
	}
}

// nextReady returns the index of mask's first set bit in cyclic order
// starting at bit from (0 ≤ from ≤ 64·len(mask)), or -1 when no bit is
// set. Bits past the last NSQ are never set, so a one-word mask is searched
// with a rotate whatever the queue count.
func nextReady(mask []uint64, from int) int {
	if len(mask) == 1 {
		m := mask[0]
		if m == 0 {
			return -1
		}
		return (from + bits.TrailingZeros64(bits.RotateLeft64(m, -from))) & 63
	}
	w := from >> 6
	if w == len(mask) {
		w, from = 0, 0
	}
	if m := mask[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	// The remaining words in order, wrapping, and last the start word's
	// bits below from (its bits at or above from were just found clear).
	for range mask {
		if w++; w == len(mask) {
			w = 0
		}
		if m := mask[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}
