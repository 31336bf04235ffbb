// Package flash models the SSD media backend: NAND channels and chips with
// page-granular read/program service times. Pages of a request stripe across
// channels, so large requests exploit internal parallelism while saturating
// the chips — the physical source of the in-SSD interference the paper's
// §8.1 discusses (T-requests flooding internal queues keep even separated
// L-requests at ms-scale latency).
//
// The model is an effective-latency one: ProgramLatency folds multi-plane
// programming and SLC caching into a single per-page service time tuned so
// aggregate bandwidth lands near an enterprise NVMe SSD. Garbage collection
// and wear-leveling live one layer up in internal/ftl, which places
// operations onto specific dies via SubmitAtDie; with the FTL disabled
// (the default) this package's static-interleave/round-robin placement is
// the whole media model and GC is absent (see DESIGN.md).
package flash

import (
	"fmt"

	"daredevil/internal/sim"
)

// Op is a media operation kind.
type Op uint8

// Media operations.
const (
	Read Op = iota
	Program
	// Erase resets a whole block; only the FTL issues it (internal/ftl GC).
	Erase
)

// Config describes the flash geometry and timing.
type Config struct {
	// Channels is the number of independent NAND channels.
	Channels int
	// ChipsPerChannel is the number of dies per channel.
	ChipsPerChannel int
	// PageSize is the media page size in bytes.
	PageSize int64
	// ReadLatency is the per-page media read time (tR).
	ReadLatency sim.Duration
	// ProgramLatency is the effective per-page program time (tPROG folded
	// with plane parallelism).
	ProgramLatency sim.Duration
	// XferLatency is the channel-bus transfer time per page.
	XferLatency sim.Duration
	// EraseLatency is the block-erase time (tBERS), used by the FTL's GC.
	// It occupies a die atomically — the ms-scale internal pause behind
	// GC-induced tail latency.
	EraseLatency sim.Duration
	// InterleaveBytes is the striping granularity: this many contiguous
	// bytes stay on one die before the mapping moves to the next channel.
	// Large requests therefore occupy size/InterleaveBytes dies — sustained
	// bandwidth needs a deep pipeline of concurrent requests, as on real
	// NAND. Zero defaults to one page (maximal striping).
	InterleaveBytes int64
}

// DefaultConfig returns a geometry resembling an enterprise PCIe 4.0 SSD
// (the evaluation's Samsung PM1735 class): 16 channels x 8 dies, ~7 GB/s
// reads and ~1.25 GB/s sustained writes at full parallelism (pre-conditioned
// TLC, as the paper pre-conditions the whole disk before each experiment).
func DefaultConfig() Config {
	return Config{
		Channels:        16,
		ChipsPerChannel: 8,
		PageSize:        4096,
		ReadLatency:     70 * sim.Microsecond,
		ProgramLatency:  420 * sim.Microsecond,
		XferLatency:     3 * sim.Microsecond,
		EraseLatency:    2 * sim.Millisecond,
		InterleaveBytes: 16 * 1024,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("flash: Channels = %d, must be positive", c.Channels)
	case c.ChipsPerChannel <= 0:
		return fmt.Errorf("flash: ChipsPerChannel = %d, must be positive", c.ChipsPerChannel)
	case c.PageSize <= 0:
		return fmt.Errorf("flash: PageSize = %d, must be positive", c.PageSize)
	case c.ReadLatency <= 0 || c.ProgramLatency <= 0:
		return fmt.Errorf("flash: media latencies must be positive")
	case c.XferLatency < 0:
		return fmt.Errorf("flash: XferLatency must be non-negative")
	case c.EraseLatency < 0:
		return fmt.Errorf("flash: EraseLatency must be non-negative")
	case c.InterleaveBytes < 0:
		return fmt.Errorf("flash: InterleaveBytes must be non-negative")
	case c.InterleaveBytes > 0 && c.InterleaveBytes%c.PageSize != 0:
		return fmt.Errorf("flash: InterleaveBytes (%d) must be a multiple of PageSize (%d)",
			c.InterleaveBytes, c.PageSize)
	}
	return nil
}

// Stats accumulates media activity.
type Stats struct {
	PagesRead    uint64
	PagesWritten uint64
	Erases       uint64
}

// Device is the media backend. All scheduling is expressed through FIFO
// resources (per-chip media units, per-channel buses); the caller learns
// completion instants and schedules its own callbacks.
//
// Writes are allocated log-structured: the FTL appends program pages
// round-robin across all dies regardless of LBA, as real flash translation
// layers do — so write bandwidth depends on the number of outstanding
// pages, not on which queue or region they came from. Reads map by LBA
// through the static interleave (the simulation does not track physical
// placement per LBA; the evaluation's read and write working sets are
// disjoint, so this costs no fidelity there).
type Device struct {
	cfg      Config
	chips    []sim.FIFORes // [channel*ChipsPerChannel + chip]
	channels []sim.FIFORes
	stats    Stats
	allocRR  int64 // FTL write-allocation cursor

	// Shift/mask fast paths for the page-mapping arithmetic, precomputed
	// at New. The default geometry is power-of-two everywhere, and the
	// div/mod chain in chipOf/Pages was the hottest flat cost in the
	// whole-simulator profile; a negative shift means that dimension is
	// not a power of two and the exact divide runs instead. The two
	// paths produce identical values for the non-negative operands used
	// here.
	pageShift int8  // log2(PageSize), or -1
	unitShift int8  // log2(pagesPerUnit), or -1
	chShift   int8  // log2(Channels), or -1
	chipShift int8  // log2(ChipsPerChannel), or -1
	chMask    int64 // Channels-1 when pow2
	chipMask  int64 // ChipsPerChannel-1 when pow2
	dieMask   int64 // len(chips)-1 when pow2, else -1
}

// pow2shift returns log2(x) when x is a positive power of two.
func pow2shift(x int64) (int8, bool) {
	if x <= 0 || x&(x-1) != 0 {
		return -1, false
	}
	var s int8
	for x > 1 {
		x >>= 1
		s++
	}
	return s, true
}

// New builds a device; it panics on invalid configuration (construction-time
// misconfiguration is a programming error).
func New(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		cfg:       cfg,
		chips:     make([]sim.FIFORes, cfg.Channels*cfg.ChipsPerChannel),
		channels:  make([]sim.FIFORes, cfg.Channels),
		pageShift: -1, unitShift: -1, chShift: -1, chipShift: -1,
		dieMask: -1,
	}
	if s, ok := pow2shift(cfg.PageSize); ok {
		d.pageShift = s
	}
	per := cfg.InterleaveBytes / cfg.PageSize
	if cfg.InterleaveBytes <= 0 {
		per = 1
	}
	if s, ok := pow2shift(per); ok {
		d.unitShift = s
	}
	if s, ok := pow2shift(int64(cfg.Channels)); ok {
		d.chShift = s
		d.chMask = int64(cfg.Channels) - 1
	}
	if s, ok := pow2shift(int64(cfg.ChipsPerChannel)); ok {
		d.chipShift = s
		d.chipMask = int64(cfg.ChipsPerChannel) - 1
	}
	if _, ok := pow2shift(int64(len(d.chips))); ok {
		d.dieMask = int64(len(d.chips)) - 1
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns accumulated media counters.
func (d *Device) Stats() Stats { return d.stats }

// NumChips reports the total number of dies.
func (d *Device) NumChips() int { return len(d.chips) }

// Pages reports how many media pages the byte range [offset, offset+size)
// touches.
//
//ddvet:hotpath
func (d *Device) Pages(offset, size int64) int {
	if size <= 0 {
		return 0
	}
	if s := d.pageShift; s >= 0 {
		return int(((offset+size-1)>>s - offset>>s) + 1)
	}
	first := offset / d.cfg.PageSize
	last := (offset + size - 1) / d.cfg.PageSize
	return int(last - first + 1)
}

// chipOf maps an absolute page index to its (channel, chip) placement:
// InterleaveBytes-sized units stripe across channels first, then across
// chips, so consecutive pages within a unit share one die.
//
//ddvet:hotpath
func (d *Device) chipOf(page int64) (channel, chip int) {
	if d.unitShift >= 0 && d.chShift >= 0 && d.chipShift >= 0 {
		unit := page >> d.unitShift
		return int(unit & d.chMask), int((unit >> d.chShift) & d.chipMask)
	}
	unit := page
	if per := d.pagesPerUnit(); per > 1 {
		unit = page / per
	}
	channel = int(unit % int64(d.cfg.Channels))
	chip = int((unit / int64(d.cfg.Channels)) % int64(d.cfg.ChipsPerChannel))
	return channel, chip
}

// ChipIndexOf maps an absolute byte offset to the flat die index
// (channel*ChipsPerChannel+chip) its first page lands on through the static
// interleave. Fault targeting uses it to decide whether a command touches a
// stalled chip; for log-structured writes (which ignore LBA placement) it
// is a deterministic approximation of the die actually programmed.
//
//ddvet:hotpath
func (d *Device) ChipIndexOf(offset int64) int {
	var page int64
	if s := d.pageShift; s >= 0 {
		page = offset >> s
	} else {
		page = offset / d.cfg.PageSize
	}
	ch, chip := d.chipOf(page)
	return ch*d.cfg.ChipsPerChannel + chip
}

// pagesPerUnit reports how many consecutive pages share a die.
func (d *Device) pagesPerUnit() int64 {
	if d.cfg.InterleaveBytes <= 0 {
		return 1
	}
	return d.cfg.InterleaveBytes / d.cfg.PageSize
}

// SubmitPage services one page at instant now and returns its completion
// instant. Reads occupy the die for tR then the channel bus for the
// transfer out; programs transfer in first, then occupy the die.
//
//ddvet:hotpath
func (d *Device) SubmitPage(now sim.Time, page int64, op Op) sim.Time {
	switch op {
	case Read:
		ch, chip := d.chipOf(page)
		die := &d.chips[ch*d.cfg.ChipsPerChannel+chip]
		bus := &d.channels[ch]
		d.stats.PagesRead++
		grant, _ := die.Acquire(now, d.cfg.ReadLatency)
		mediaDone := grant.Add(d.cfg.ReadLatency)
		busGrant, _ := bus.Acquire(mediaDone, d.cfg.XferLatency)
		return busGrant.Add(d.cfg.XferLatency)
	case Program:
		// Log-structured allocation: the page's LBA placement is ignored —
		// the program appends to the next die in round-robin order, so the
		// chipOf lookup is skipped entirely.
		d.stats.PagesWritten++
		d.allocRR++
		var idx int64
		var busIdx int
		if d.dieMask >= 0 && d.chipShift >= 0 {
			idx = d.allocRR & d.dieMask
			busIdx = int(idx >> d.chipShift)
		} else {
			idx = d.allocRR % int64(len(d.chips))
			busIdx = int(idx) / d.cfg.ChipsPerChannel
		}
		die := &d.chips[idx]
		bus := &d.channels[busIdx]
		busGrant, _ := bus.Acquire(now, d.cfg.XferLatency)
		xferDone := busGrant.Add(d.cfg.XferLatency)
		grant, _ := die.Acquire(xferDone, d.cfg.ProgramLatency)
		return grant.Add(d.cfg.ProgramLatency)
	default:
		panic(fmt.Sprintf("flash: unknown op %d", op)) //lint:ddvet:allow hotpathalloc cold panic path
	}
}

// busOf returns the channel bus of flat die index dieIdx.
func (d *Device) busOf(dieIdx int) *sim.FIFORes {
	if d.chipShift >= 0 {
		return &d.channels[dieIdx>>d.chipShift]
	}
	return &d.channels[dieIdx/d.cfg.ChipsPerChannel]
}

// SubmitAtDie services one operation on an explicitly chosen die at instant
// now and returns its completion instant. This is the FTL's entry point:
// placement is the FTL's mapping decision, not the static interleave. Reads
// occupy the die then the channel bus; programs the bus then the die; erases
// the die alone (no data crosses the bus).
//
//ddvet:hotpath
func (d *Device) SubmitAtDie(now sim.Time, dieIdx int, op Op) sim.Time {
	die, bus := &d.chips[dieIdx], d.busOf(dieIdx)
	switch op {
	case Read:
		d.stats.PagesRead++
		grant, _ := die.Acquire(now, d.cfg.ReadLatency)
		mediaDone := grant.Add(d.cfg.ReadLatency)
		busGrant, _ := bus.Acquire(mediaDone, d.cfg.XferLatency)
		return busGrant.Add(d.cfg.XferLatency)
	case Program:
		d.stats.PagesWritten++
		busGrant, _ := bus.Acquire(now, d.cfg.XferLatency)
		xferDone := busGrant.Add(d.cfg.XferLatency)
		grant, _ := die.Acquire(xferDone, d.cfg.ProgramLatency)
		return grant.Add(d.cfg.ProgramLatency)
	case Erase:
		d.stats.Erases++
		grant, _ := die.Acquire(now, d.cfg.EraseLatency)
		return grant.Add(d.cfg.EraseLatency)
	default:
		panic(fmt.Sprintf("flash: unknown op %d", op)) //lint:ddvet:allow hotpathalloc cold panic path
	}
}

// RelocateAtDie services pages read→program pairs on one die at instant now,
// a GC relocation step, and returns the completion instant of the last
// program (now when pages is 0). Each pair acquires die and bus exactly as
// SubmitAtDie(Read) followed by SubmitAtDie(Program) would, pair after
// pair, so the instants are those of the per-page calls; one call per step
// saves two non-inlined calls per moved page.
//
//ddvet:hotpath
func (d *Device) RelocateAtDie(now sim.Time, dieIdx, pages int) sim.Time {
	die, bus := &d.chips[dieIdx], d.busOf(dieIdx)
	rd, xf, pg := d.cfg.ReadLatency, d.cfg.XferLatency, d.cfg.ProgramLatency
	d.stats.PagesRead += uint64(pages)
	d.stats.PagesWritten += uint64(pages)
	done := now
	for i := 0; i < pages; i++ {
		grant, _ := die.Acquire(now, rd)
		bus.Acquire(grant.Add(rd), xf)
		busGrant, _ := bus.Acquire(now, xf)
		grant, _ = die.Acquire(busGrant.Add(xf), pg)
		done = grant.Add(pg)
	}
	return done
}

// SubmitIO services the byte range [offset, offset+size) at instant now and
// returns the completion instant of the final page.
//
//ddvet:hotpath
func (d *Device) SubmitIO(now sim.Time, offset, size int64, op Op) sim.Time {
	n := d.Pages(offset, size)
	if n == 0 {
		return now
	}
	var first int64
	if s := d.pageShift; s >= 0 {
		first = offset >> s
	} else {
		first = offset / d.cfg.PageSize
	}
	if n == 1 {
		return d.SubmitPage(now, first, op)
	}
	// Multi-page requests run the per-page logic open-coded: SubmitPage is
	// too large to inline, and bulky T-requests put tens of pages through
	// this loop per command, so the per-page call and op re-dispatch are
	// measurable. The resource-acquire sequence is exactly SubmitPage's.
	done := now
	switch op {
	case Read:
		rd, xf := d.cfg.ReadLatency, d.cfg.XferLatency
		d.stats.PagesRead += uint64(n)
		for i := int64(0); i < int64(n); i++ {
			ch, chip := d.chipOf(first + i)
			grant, _ := d.chips[ch*d.cfg.ChipsPerChannel+chip].Acquire(now, rd)
			busGrant, _ := d.channels[ch].Acquire(grant.Add(rd), xf)
			if t := busGrant.Add(xf); t > done {
				done = t
			}
		}
	case Program:
		xf, pg := d.cfg.XferLatency, d.cfg.ProgramLatency
		fast := d.dieMask >= 0 && d.chipShift >= 0
		d.stats.PagesWritten += uint64(n)
		for i := 0; i < n; i++ {
			d.allocRR++
			var idx int64
			var busIdx int
			if fast {
				idx = d.allocRR & d.dieMask
				busIdx = int(idx >> d.chipShift)
			} else {
				idx = d.allocRR % int64(len(d.chips))
				busIdx = int(idx) / d.cfg.ChipsPerChannel
			}
			busGrant, _ := d.channels[busIdx].Acquire(now, xf)
			grant, _ := d.chips[idx].Acquire(busGrant.Add(xf), pg)
			if t := grant.Add(pg); t > done {
				done = t
			}
		}
	default:
		for i := int64(0); i < int64(n); i++ {
			if t := d.SubmitPage(now, first+i, op); t > done {
				done = t
			}
		}
	}
	return done
}

// QueuedWork estimates the backlog (busy horizon) of the die serving the
// given page, as a duration beyond now. Zero means the die is idle.
func (d *Device) QueuedWork(now sim.Time, page int64) sim.Duration {
	ch, chip := d.chipOf(page)
	die := &d.chips[ch*d.cfg.ChipsPerChannel+chip]
	if die.FreeAt() <= now {
		return 0
	}
	return die.FreeAt().Sub(now)
}

// DieFreeAt reports when die dieIdx's queued work drains. The FTL brackets
// its foreground-GC rounds with this to meter how much die time each GC
// episode inserted ahead of the stalled host write — the profiler's
// GC-attributed latency layer.
func (d *Device) DieFreeAt(dieIdx int) sim.Time {
	return d.chips[dieIdx].FreeAt()
}

// MaxBacklog reports the largest die backlog beyond now across the device —
// a coarse congestion signal used by tests and diagnostics.
func (d *Device) MaxBacklog(now sim.Time) sim.Duration {
	var max sim.Duration
	for i := range d.chips {
		if d.chips[i].FreeAt() > now {
			if b := d.chips[i].FreeAt().Sub(now); b > max {
				max = b
			}
		}
	}
	return max
}
