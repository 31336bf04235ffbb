// Package ftl is a page-mapped flash translation layer between the NVMe
// controller (internal/nvme) and the raw media (internal/flash). It owns the
// logical→physical page mapping, allocates host and relocation writes into
// per-die blocks, reclaims invalid pages with background garbage collection,
// levels wear across blocks, and honors NVMe Deallocate (TRIM).
//
// The point of the layer is *device-internal interference* (paper §8.1):
// GC relocation reads/programs and block erases are issued into the same
// per-die FIFOs as foreground I/O, so a victim block being collected delays
// every tenant whose pages live on that die — exactly the ms-scale internal
// contention that keeps even perfectly NQ-separated L-requests from reaching
// µs latencies. With the FTL disabled the simulator falls back to the
// effective-latency flash model (today's default path, bit-identical).
//
// Determinism: the FTL keeps no wall-clock or map-iteration state; identical
// configurations and request streams produce identical mappings, GC
// schedules, and statistics.
package ftl

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"daredevil/internal/fault"
	"daredevil/internal/flash"
	"daredevil/internal/obs"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
)

// Policy selects the GC victim-selection policy.
type Policy uint8

// Victim-selection policies.
const (
	// Greedy picks the block with the fewest valid pages — optimal for
	// uniform overwrite traffic.
	Greedy Policy = iota
	// CostBenefit weighs invalidity against block age ((1-u)/(1+u) · age),
	// preferring cold, mostly-invalid blocks — better under skew.
	CostBenefit
)

// String names the policy.
func (p Policy) String() string {
	if p == CostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

// Config describes the FTL geometry and policies. The die count and page
// size come from the flash device the FTL is layered on.
type Config struct {
	// PagesPerBlock is the erase-block size in pages.
	PagesPerBlock int
	// BlocksPerDie is the number of erase blocks per die.
	BlocksPerDie int
	// OPPct is the over-provisioned share of physical capacity in percent
	// (7, 15, 28 in the ext-gc sweep). Logical capacity is
	// physical · (100-OPPct)/100.
	OPPct float64
	// Policy selects GC victim selection (default Greedy).
	Policy Policy
	// GCLowWater starts background GC on a die when its free-block count
	// drops below this; GCHighWater stops it. They are a small, fixed
	// clean-block reserve (defaults 2 and 3): over-provisioned capacity
	// beyond it lives as invalid pages spread across data blocks, which is
	// what makes more OP lower write amplification.
	GCLowWater  int
	GCHighWater int
	// GCBatchPages bounds relocation pages moved per GC step, so foreground
	// I/O interleaves with collection instead of stalling for a whole
	// victim (default 8).
	GCBatchPages int
	// PreconditionPct maps this share of the logical space (sequentially,
	// at zero simulated cost) before the run — the paper's pre-conditioned
	// "aged" device. 100 models a full drive in steady state.
	PreconditionPct int
	// ScramblePct overwrites this share of the preconditioned pages once
	// (accounting only), fragmenting block validity the way a history of
	// random writes would.
	ScramblePct int
	// Seed drives the scramble stream.
	Seed uint64
}

// DefaultConfig returns a small, GC-active geometry: with the default flash
// shape (128 dies) it yields a 4 GiB physical device whose per-die
// clean-block reserve (2-3 of 128 blocks) stays well under the smallest OP
// setting, so over-provisioning differences show up as data-block
// invalidity — the aged-device regime the ext-gc experiment probes.
func DefaultConfig() Config {
	return Config{
		PagesPerBlock:   64,
		BlocksPerDie:    128,
		OPPct:           7,
		Policy:          Greedy,
		GCBatchPages:    8,
		PreconditionPct: 100,
		ScramblePct:     30,
		Seed:            0x0f7c,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	low, high := c.watermarks()
	switch {
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("ftl: PagesPerBlock = %d, must be positive", c.PagesPerBlock)
	case c.BlocksPerDie < 3:
		return fmt.Errorf("ftl: BlocksPerDie = %d, need at least 3 (active + GC reserve + data)", c.BlocksPerDie)
	case c.OPPct < 2 || c.OPPct > 90:
		return fmt.Errorf("ftl: OPPct = %v out of [2,90]", c.OPPct)
	case c.GCLowWater < 0 || c.GCHighWater < 0:
		return fmt.Errorf("ftl: negative GC watermark")
	case high <= low:
		return fmt.Errorf("ftl: GC high watermark (%d) must exceed low watermark (%d)", high, low)
	case c.GCBatchPages < 0:
		return fmt.Errorf("ftl: negative GCBatchPages")
	case c.PreconditionPct < 0 || c.PreconditionPct > 100:
		return fmt.Errorf("ftl: PreconditionPct = %d out of [0,100]", c.PreconditionPct)
	case c.ScramblePct < 0 || c.ScramblePct > 100:
		return fmt.Errorf("ftl: ScramblePct = %d out of [0,100]", c.ScramblePct)
	}
	return nil
}

// watermarks resolves the GC watermarks with their defaults filled in: low
// is GCLowWater or 2, high is GCHighWater or low+1. The defaults are a
// fixed clean-block reserve. Keeping it small and OP-independent is
// deliberate: clean blocks held free are spare capacity that can't serve
// as data-block invalidity, so a reserve that scaled with OP would eat
// exactly the slack that is supposed to make GC cheaper.
func (c Config) watermarks() (low, high int) {
	low, high = c.GCLowWater, c.GCHighWater
	if low == 0 {
		low = 2
	}
	if high == 0 {
		high = low + 1
	}
	return low, high
}

// Stats accumulates FTL activity since the last ResetStats.
type Stats struct {
	// HostPagesWritten counts pages programmed on behalf of host writes;
	// FlashPagesWritten additionally counts GC relocation programs. Their
	// ratio is the write amplification.
	HostPagesWritten  uint64
	FlashPagesWritten uint64
	// HostPagesRead counts host page reads (mapped or unmapped).
	HostPagesRead uint64
	// GCRuns counts collected victim blocks; GCPagesMoved the pages
	// relocated out of them.
	GCRuns       uint64
	GCPagesMoved uint64
	// Erases counts block erases.
	Erases uint64
	// TrimmedPages counts pages invalidated by Deallocate.
	TrimmedPages uint64
	// ForegroundGCs counts writes that stalled for an inline (foreground)
	// collection because no die had host-allocatable space — the write
	// cliff of a device out of clean blocks.
	ForegroundGCs uint64
	// ProgramFailures counts injected host program failures (fault
	// schedule); each closes the die's host active block and marks it
	// grown-bad.
	ProgramFailures uint64
	// GrownBadBlocks counts blocks retired from service after a program
	// failure (post-GC, at erase time).
	GrownBadBlocks uint64
}

// WriteAmplification reports FlashPagesWritten / HostPagesWritten (1.0 when
// no host write happened).
func (s Stats) WriteAmplification() float64 {
	if s.HostPagesWritten == 0 {
		return 1
	}
	return float64(s.FlashPagesWritten) / float64(s.HostPagesWritten)
}

// blockMeta is the per-erase-block bookkeeping.
type blockMeta struct {
	valid     int32    // mapped pages in the block
	erases    uint32   // lifetime erase count (wear)
	lastWrite sim.Time // most recent program (cost-benefit age)
	free      bool     // sitting in the die's free list
	// bad marks a grown-bad block: a program into it failed, the write
	// stream closed it early, and its next erase retires it instead of
	// freeing it. Data already programmed stays readable until GC
	// relocates it — the usual grown-defect handling on real FTLs.
	bad bool
	// retired takes the block out of service permanently: never freed,
	// never a victim, never allocated.
	retired bool
}

// dieState is the per-die allocation and GC state.
//
// GC on a die is a chain of *rounds*, one victim block per round. A round
// relocates the victim's valid pages (in GCBatchPages steps, so foreground
// I/O interleaves in the die FIFO) and ends with the erase.
//
// Host and GC write into separate active blocks (hot/cold stream
// separation): mixing freshly overwritten host data with relocated cold
// data would spread invalidity evenly and inflate write amplification.
// The streams also carry the invariant that makes every GC round
// completable: a round needs at most one new destination block (a victim
// has at most PagesPerBlock-1 valid pages, and the host never writes into
// the GC stream), and whenever GC must open one, a free block exists —
// host writes need two free blocks to open their own, so only GC itself
// can take the last.
type dieState struct {
	free     []int // free block indexes (die-local)
	active   int   // open block host programs append into (-1 none)
	writePtr int   // next page slot in the host active block
	gcActive int   // open block GC relocations append into (-1 none)
	gcPtr    int   // next page slot in the GC active block

	gcOn     bool     // a GC round chain is running on this die
	gcVictim int      // victim block of the in-progress round (-1 between rounds)
	gcScan   int      // next victim page slot to examine
	gcStart  sim.Time // round start, for the pause histogram
	gcMoved0 uint64   // GCPagesMoved at round start, for per-round deltas
	gcGen    uint64   // invalidates scheduled GC continuations after a takeover

	retired int // blocks taken out of service on this die (grown bad)

	// trimMark is the number of the last Trim that listed the die in its
	// wake batch.
	trimMark uint64
}

// gcCont is one scheduled GC continuation: the next relocation step of a
// round (gcStepWake) or the start of the next round once the victim's
// erase completes (gcRoundWake). It carries the die, the die's GC
// generation when it was scheduled and the round's victim: a foreground
// takeover bumps the generation, so a record that fires after one finds
// its round gone and only returns to the pool. Records are pooled per
// device and ride the engine as the argument of package-level functions,
// so a GC chain allocates nothing once the pool has grown to the number
// of continuations pending at once.
type gcCont struct {
	d      *Device
	die    int
	gen    uint64
	victim int
	// live guards the free list against a double release.
	live bool
}

// gcContChunk is the GC continuation record carve granularity.
const gcContChunk = 32

// Device is the flash translation layer over one media device.
type Device struct {
	cfg   Config
	eng   *sim.Engine
	media *flash.Device

	pageSize  int64
	ppb       int
	numDies   int
	physPages int64
	logPages  int64
	lowWater  int
	highWater int
	// pagesPerDie is BlocksPerDie·PagesPerBlock: the die of physical page
	// pp is pp/pagesPerDie, a 32-bit division (physical pages are int32).
	pagesPerDie uint32

	l2p []int32 // logical page → physical page (-1 unmapped)
	// p2l maps a physical page back to its logical page. An entry means
	// something only where the page's bit in live is set: invalidating a
	// page clears its bit and leaves the entry stale, and the table is
	// never filled at build time.
	p2l []int32
	// live is the valid-page bitmap, one bit per physical page (128 KiB
	// for a 4 GiB device), so invalidation touches a cache-resident word
	// instead of a random entry of p2l.
	live   []uint64
	blocks []blockMeta
	dies   []dieState

	// freeConts recycles GC continuation records; contSlab is the chunk
	// the free list refills from, and conts counts every record carved,
	// so all of them are back in freeConts once the engine drains.
	freeConts []*gcCont
	contSlab  []gcCont
	conts     int
	// wakeQ is the TRIM wake FIFO. Each Trim that invalidated pages
	// appends one batch, the dies it touched in first-touch order (at most
	// one entry per die) closed by wakeEnd, and schedules one trimWake,
	// which drains the oldest batch from wakeHead. trims numbers the Trim
	// calls, so a die's trimMark says whether the current batch lists it.
	wakeQ    []int32
	wakeHead int
	trims    uint64

	allocRR int // host-allocation die cursor
	// inj, when attached, injects program failures that grow bad blocks.
	inj *fault.Injector
	// tracer, when attached, receives GC-round ranges for the trace
	// timeline; fr receives flight-recorder events. Both nil-safe.
	tracer *obs.Tracer
	fr     *obs.Ring

	st Stats
	// fgStall accumulates the die time foreground-GC rounds inserted ahead
	// of stalled host programs (measured as the chosen die's free-horizon
	// growth across the rounds). Unlike st it is monotonic and survives
	// ResetStats: the controller attributes GC waits to spans by sampling
	// its delta around a command's service, and a mid-command reset would
	// corrupt that delta.
	fgStall sim.Duration
	// GCPauses is the distribution of per-victim collection times (first
	// relocation to erase completion) — the GC pause a colocated tenant can
	// observe on that die.
	GCPauses stats.Histogram
}

// New builds an FTL over media, pre-conditions it per the configuration, and
// resets statistics so measurements start from the aged state. It panics on
// invalid configuration (construction-time misconfiguration is a programming
// error), including a media configuration without a positive EraseLatency.
func New(eng *sim.Engine, media *flash.Device, cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if media.Config().EraseLatency <= 0 {
		panic("ftl: media EraseLatency must be positive for an FTL-managed device")
	}
	if cfg.GCBatchPages == 0 {
		cfg.GCBatchPages = 8
	}
	d := &Device{
		cfg:      cfg,
		eng:      eng,
		media:    media,
		pageSize: media.Config().PageSize,
		ppb:      cfg.PagesPerBlock,
		numDies:  media.NumChips(),
	}
	d.physPages = int64(d.numDies) * int64(cfg.BlocksPerDie) * int64(d.ppb)
	d.pagesPerDie = uint32(cfg.BlocksPerDie * d.ppb)
	d.logPages = d.physPages * int64((100-cfg.OPPct)*100) / 10000
	if d.logPages <= 0 {
		panic("ftl: zero logical capacity")
	}
	d.lowWater, d.highWater = cfg.watermarks()

	d.l2p = make([]int32, d.logPages)
	d.p2l = make([]int32, d.physPages)
	d.live = make([]uint64, (d.physPages+63)/64)
	d.blocks = make([]blockMeta, d.numDies*cfg.BlocksPerDie)
	d.dies = make([]dieState, d.numDies)
	d.wakeQ = make([]int32, 0, d.numDies+1)
	for i := range d.dies {
		die := &d.dies[i]
		die.active = -1
		die.gcActive = -1
		die.gcVictim = -1
		die.free = make([]int, cfg.BlocksPerDie)
		for b := range die.free {
			die.free[b] = b
			d.blocks[i*cfg.BlocksPerDie+b].free = true
		}
	}
	d.precondition()
	d.ResetStats()
	return d
}

// Config returns the FTL configuration.
func (d *Device) Config() Config { return d.cfg }

// AttachFault installs a fault injector; host page programs then draw
// grown-bad-block failures from its stream. Pass nil to detach.
func (d *Device) AttachFault(inj *fault.Injector) { d.inj = inj }

// AttachObs connects the FTL to an observer: finished GC rounds land on the
// trace timeline (one track per die) and in the "ftl" flight ring.
func (d *Device) AttachObs(o *obs.Observer) {
	if o == nil {
		d.tracer, d.fr = nil, nil
		return
	}
	d.tracer = o.Tracer()
	if f := o.Flight(); f != nil {
		d.fr = f.Ring("ftl")
	}
}

// ForegroundGCCount reports writes that stalled for an inline GC; the
// controller samples its delta across a command's service to attribute GC
// waits to individual spans.
func (d *Device) ForegroundGCCount() uint64 { return d.st.ForegroundGCs }

// ForegroundGCStall reports the cumulative die time foreground-GC rounds
// inserted ahead of stalled host writes. Monotonic (never reset): consumers
// sample deltas, so only differences are meaningful.
func (d *Device) ForegroundGCStall() sim.Duration { return d.fgStall }

// Stats returns accumulated counters.
func (d *Device) Stats() Stats { return d.st }

// ResetStats clears counters and the GC-pause histogram (mapping state is
// untouched); the harness calls this after warmup.
func (d *Device) ResetStats() {
	d.st = Stats{}
	d.GCPauses.Reset()
}

// LogicalPages reports the logical capacity in pages.
func (d *Device) LogicalPages() int64 { return d.logPages }

// PhysicalPages reports the physical capacity in pages.
func (d *Device) PhysicalPages() int64 { return d.physPages }

// ValidPages reports currently mapped pages.
func (d *Device) ValidPages() int64 {
	var n int64
	for i := range d.blocks {
		n += int64(d.blocks[i].valid)
	}
	return n
}

// FreeBlocks reports free (erased, unallocated) blocks across all dies.
func (d *Device) FreeBlocks() int {
	var n int
	for i := range d.dies {
		n += len(d.dies[i].free)
	}
	return n
}

// EraseCounts reports the minimum and maximum lifetime erase count across
// blocks — the wear spread the leveling keeps tight.
func (d *Device) EraseCounts() (min, max uint32) {
	min = d.blocks[0].erases
	for i := range d.blocks {
		if d.blocks[i].erases < min {
			min = d.blocks[i].erases
		}
		if d.blocks[i].erases > max {
			max = d.blocks[i].erases
		}
	}
	return min, max
}

// logicalPage folds an absolute byte offset into the FTL's logical page
// space (the NVMe address space is far larger than the simulated media; the
// fold keeps any working set resident, like a span-limited fio file).
func (d *Device) logicalPage(abs int64) int64 {
	lp := (abs / d.pageSize) % d.logPages
	if lp < 0 {
		lp += d.logPages
	}
	return lp
}

// Physical-page index helpers. Physical pages are non-negative int32s,
// so both divisions are 32-bit and hold for any block size.
func (d *Device) dieOfPhys(pp int32) int {
	return int(uint32(pp) / d.pagesPerDie)
}

func (d *Device) blockOfPhys(pp int32) int {
	return int(uint32(pp) / uint32(d.ppb))
}

// Live-bitmap accessors.
func (d *Device) isLive(pp int32) bool {
	return d.live[uint32(pp)>>6]&(1<<(uint32(pp)&63)) != 0
}

func (d *Device) setLive(pp int32) {
	d.live[uint32(pp)>>6] |= 1 << (uint32(pp) & 63)
}

func (d *Device) clearLive(pp int32) {
	d.live[uint32(pp)>>6] &^= 1 << (uint32(pp) & 63)
}

// nextLive returns the first live page in [from, end), or end if there is
// none. It reads the bitmap a word at a time, so a GC scan skips invalid
// pages without a branch per page.
func (d *Device) nextLive(from, end int32) int32 {
	if from >= end {
		return end
	}
	w := uint32(from) >> 6
	word := d.live[w] &^ (1<<(uint32(from)&63) - 1)
	for word == 0 {
		w++
		if int32(w<<6) >= end {
			return end
		}
		word = d.live[w]
	}
	if pp := int32(w<<6) + int32(bits.TrailingZeros64(word)); pp < end {
		return pp
	}
	return end
}

// SubmitIO services the byte range [offset, offset+size) at instant now,
// page by page through the mapping, and returns the completion instant of
// the final page. Reads of unmapped pages fall back to the media's static
// placement (the pre-FTL read path); writes allocate, remap, and may
// trigger GC. Consecutive pages of the range are consecutive logical
// pages, wrapping at the end of the logical space, so only the first is
// folded.
//
//ddvet:hotpath
func (d *Device) SubmitIO(now sim.Time, offset, size int64, op flash.Op) sim.Time {
	n := d.media.Pages(offset, size)
	if n == 0 {
		return now
	}
	firstAbs := offset / d.pageSize
	lp := d.logicalPage(offset)
	done := now
	for i := int64(0); i < int64(n); i++ {
		var t sim.Time
		if op == flash.Read {
			t = d.readPage(now, lp, firstAbs+i)
		} else {
			t = d.writePage(now, lp)
		}
		if t > done {
			done = t
		}
		if lp++; lp == d.logPages {
			lp = 0
		}
	}
	return done
}

// readPage services one logical page read.
func (d *Device) readPage(now sim.Time, lp, absPage int64) sim.Time {
	d.st.HostPagesRead++
	if pp := d.l2p[lp]; pp >= 0 {
		return d.media.SubmitAtDie(now, d.dieOfPhys(pp), flash.Read)
	}
	// Unmapped (never-written) page: static interleave placement, as in the
	// FTL-less model.
	return d.media.SubmitPage(now, absPage, flash.Read)
}

// writePage services one logical page program: pick a die, allocate a
// physical page, remap, and issue the program into that die's FIFO. An
// injected program failure (fault schedule) hits the chosen die first: the
// failed attempt still occupies the die, the active block is closed and
// marked grown-bad, and the write retries on a fresh allocation.
func (d *Device) writePage(now sim.Time, lp int64) sim.Time {
	die := d.pickDie()
	if die < 0 {
		die = d.foregroundGC(now)
	}
	if d.inj != nil && d.inj.ProgramFails() {
		d.failProgram(now, die)
		die = d.pickDie()
		if die < 0 {
			die = d.foregroundGC(now)
		}
	}
	pp, blk := d.allocPage(die, now, false)
	d.remap(lp, pp, blk)
	d.st.HostPagesWritten++
	d.st.FlashPagesWritten++
	t := d.media.SubmitAtDie(now, die, flash.Program)
	d.maybeGC(die)
	return t
}

// failProgram models a program failure in the die's host active block: the
// failed attempt occupies the die like any program, then the stream closes
// the block early and marks it grown-bad. Pages already programmed into it
// stay mapped and readable; GC relocates them later, and the block's next
// erase retires it (eraseBlock).
func (d *Device) failProgram(now sim.Time, die int) {
	d.st.ProgramFailures++
	d.media.SubmitAtDie(now, die, flash.Program)
	ds := &d.dies[die]
	if ds.active < 0 {
		return // failure hit between blocks; nothing to mark
	}
	d.blocks[die*d.cfg.BlocksPerDie+ds.active].bad = true
	ds.active = -1
	ds.writePtr = 0
	d.maybeGC(die)
}

// Trim deallocates the byte range: every mapped page in it becomes invalid
// in its physical block without any media work — the NVMe Deallocate (TRIM)
// semantics that let GC skip dead data. The Deallocate itself completes
// without touching the media; the dies that gained invalidity get their GC
// woken on one deferred event at the current instant (trimWake), in the
// order the range first touched each die. The dies go into the device's
// wake FIFO as one batch, so a Deallocate costs one event however many dies
// it spans.
//
//ddvet:hotpath
func (d *Device) Trim(offset, size int64) int {
	n := d.media.Pages(offset, size)
	trimmed := 0
	d.trims++
	// Room for every die plus the end marker, so the loop stores by index;
	// the FIFO empties every instant, so this grows only while warming up.
	start := len(d.wakeQ)
	q := slices.Grow(d.wakeQ, d.numDies+1)[:start+d.numDies+1]
	end := start
	lp := d.logicalPage(offset)
	for i := 0; i < n; i++ {
		if pp := d.l2p[lp]; pp >= 0 {
			die := d.dieOfPhys(pp)
			d.unmapPhys(pp)
			d.l2p[lp] = -1
			trimmed++
			if ds := &d.dies[die]; ds.trimMark != d.trims {
				ds.trimMark = d.trims
				q[end] = int32(die)
				end++
			}
		}
		if lp++; lp == d.logPages {
			lp = 0
		}
	}
	if end > start {
		q[end] = wakeEnd
		end++
		d.eng.AtArg(d.eng.Now(), trimWake, d)
	}
	d.wakeQ = q[:end]
	d.st.TrimmedPages += uint64(trimmed)
	return trimmed
}

// wakeEnd closes a Trim's batch in the wake FIFO.
const wakeEnd = -1

// trimWake is a TRIM's deferred GC wake-up: it pops the oldest batch of the
// wake FIFO and runs maybeGC on each of its dies in first-touch order. That
// is exactly one wake event per die at consecutive seqs of this instant:
// nothing could fire between those, and whatever maybeGC schedules gets a
// later seq either way. Wakes are only scheduled at the current instant, so
// they fire in the order their Trims ran, and draining strictly one batch
// per wake, oldest first, keeps two Deallocates at one instant apart.
//
//ddvet:hotpath
func trimWake(arg any) {
	d := arg.(*Device)
	for {
		die := d.wakeQ[d.wakeHead]
		d.wakeHead++
		if die == wakeEnd {
			break
		}
		d.maybeGC(int(die))
	}
	if d.wakeHead == len(d.wakeQ) {
		d.wakeQ, d.wakeHead = d.wakeQ[:0], 0
	}
}

// nextDie is the die after die in round-robin order.
func (d *Device) nextDie(die int) int {
	if die++; die == d.numDies {
		return 0
	}
	return die
}

// pickDie round-robins over dies, returning the first that can absorb a
// host write (room in the active block, or a spare free block beyond the GC
// reserve), or -1 when the device is out of clean space everywhere.
func (d *Device) pickDie() int {
	idx := d.allocRR
	for i := 0; i < d.numDies; i++ {
		idx = d.nextDie(idx)
		if d.hostCanAlloc(idx) {
			d.allocRR = idx
			return idx
		}
	}
	return -1
}

// hostCanAlloc reports whether a host write can allocate on the die without
// endangering GC's destination space: room in the host active block, or two
// free blocks (one to open, one left as the GC reserve).
func (d *Device) hostCanAlloc(die int) bool {
	ds := &d.dies[die]
	if ds.active >= 0 && ds.writePtr < d.ppb {
		return true
	}
	return len(ds.free) >= 2
}

// allocPage hands out the next physical page on the die in the host or GC
// write stream, opening a new active block from the free list when the
// stream's current one fills. GC relocation (gc=true) may take the last
// free block; host writes may not (callers check hostCanAlloc first). It
// returns the page and its block's index in blocks.
func (d *Device) allocPage(die int, now sim.Time, gc bool) (int32, int) {
	ds := &d.dies[die]
	active, ptr := &ds.active, &ds.writePtr
	if gc {
		active, ptr = &ds.gcActive, &ds.gcPtr
	}
	if *active < 0 || *ptr >= d.ppb {
		if len(ds.free) == 0 {
			panic("ftl: allocation with no free block (reserve invariant broken)")
		}
		if !gc && len(ds.free) < 2 {
			panic("ftl: host allocation would consume the GC reserve")
		}
		*active = d.openBlock(die)
		*ptr = 0
	}
	blk := die*d.cfg.BlocksPerDie + *active
	pp := int32(blk*d.ppb + *ptr)
	*ptr++
	d.blocks[blk].lastWrite = now
	return pp, blk
}

// openBlock pops the least-erased free block of the die (dynamic wear
// leveling: cold free blocks absorb new writes first).
func (d *Device) openBlock(die int) int {
	ds := &d.dies[die]
	base := die * d.cfg.BlocksPerDie
	pick := 0
	for i := 1; i < len(ds.free); i++ {
		if d.blocks[base+ds.free[i]].erases < d.blocks[base+ds.free[pick]].erases {
			pick = i
		}
	}
	blk := ds.free[pick]
	copy(ds.free[pick:], ds.free[pick+1:])
	ds.free = ds.free[:len(ds.free)-1]
	d.blocks[base+blk].free = false
	return blk
}

// remap points lp at pp, a fresh page of block blk, invalidating any
// previous mapping. Invalidation is what creates reclaimable space, so it
// also wakes GC on the die that lost the page: a die too full to accept
// host writes is never a write destination, and without this kick nothing
// would ever restart its chain — overwrites landing elsewhere would starve
// it frozen at the reserve.
func (d *Device) remap(lp int64, pp int32, blk int) {
	if old := d.l2p[lp]; old >= 0 {
		d.unmapPhys(old)
		d.maybeGC(d.dieOfPhys(old))
	}
	d.mapPage(int32(lp), pp, blk)
}

// mapPage points lp at pp, a fresh page of block blk.
func (d *Device) mapPage(lp, pp int32, blk int) {
	d.l2p[lp] = pp
	d.p2l[pp] = lp
	d.setLive(pp)
	d.blocks[blk].valid++
}

// unmapPhys invalidates one physical page. Its p2l entry goes stale.
func (d *Device) unmapPhys(pp int32) {
	d.clearLive(pp)
	d.blocks[d.blockOfPhys(pp)].valid--
}

// maybeGC starts a GC round chain on the die when its free pool falls below
// the low watermark.
func (d *Device) maybeGC(die int) {
	ds := &d.dies[die]
	if ds.gcOn || len(ds.free) >= d.lowWater {
		return
	}
	ds.gcOn = true
	d.gcBeginRound(die)
}

// gcBeginRound opens the next round on the die (or stops the chain at the
// high watermark / when nothing is reclaimable).
func (d *Device) gcBeginRound(die int) {
	ds := &d.dies[die]
	if len(ds.free) >= d.highWater {
		ds.gcOn = false
		return
	}
	victim := d.selectVictim(die)
	if victim < 0 {
		ds.gcOn = false
		return
	}
	ds.gcVictim = victim
	ds.gcScan = 0
	ds.gcStart = d.eng.Now()
	ds.gcMoved0 = d.st.GCPagesMoved
	d.gcStep(die)
}

// gcStep relocates up to GCBatchPages valid pages of the round's victim —
// the reads/programs enter the die FIFO now, and the next step is scheduled
// at their completion, so foreground I/O arriving in between interleaves
// instead of stalling behind the whole victim. The final step erases the
// victim and chains the next round. Scheduled continuations carry the die's
// GC generation: a foreground takeover (gcFinishRound from a stalled write)
// bumps it, voiding them.
func (d *Device) gcStep(die int) {
	ds := &d.dies[die]
	victim := ds.gcVictim
	batchDone := d.relocate(die, victim, d.cfg.GCBatchPages)
	if ds.gcScan < d.ppb {
		d.eng.AtArg(batchDone, gcStepWake, d.allocCont(die, ds.gcGen, victim))
		return
	}
	d.gcFinishRound(die)
}

// gcStepWake runs the round's next relocation step, unless a takeover
// voided the round meanwhile.
//
//ddvet:hotpath
func gcStepWake(arg any) {
	c := arg.(*gcCont)
	d, die, gen, victim := c.d, c.die, c.gen, c.victim
	d.freeCont(c)
	if ds := &d.dies[die]; ds.gcGen == gen && ds.gcVictim == victim {
		d.gcStep(die)
	}
}

// gcRoundWake opens the die's next round at the previous victim's erase
// completion, unless a takeover or the chain's end voided it meanwhile.
//
//ddvet:hotpath
func gcRoundWake(arg any) {
	c := arg.(*gcCont)
	d, die, gen := c.d, c.die, c.gen
	d.freeCont(c)
	if ds := &d.dies[die]; ds.gcGen == gen && ds.gcOn && ds.gcVictim < 0 {
		d.gcBeginRound(die)
	}
}

// allocCont takes a GC continuation record from the free list, carving a
// new chunk when it is empty. A record's device is set once, when it is
// carved: the pool is per device, so reuse rewrites only the scalar fields
// (storing the pointer again would cost a write barrier per GC step).
func (d *Device) allocCont(die int, gen uint64, victim int) *gcCont {
	var c *gcCont
	if n := len(d.freeConts); n > 0 {
		c = d.freeConts[n-1]
		d.freeConts = d.freeConts[:n-1]
	} else {
		if len(d.contSlab) == 0 {
			d.contSlab = make([]gcCont, gcContChunk)
		}
		c = &d.contSlab[0]
		d.contSlab = d.contSlab[1:]
		d.conts++
		c.d = d
	}
	c.die, c.gen, c.victim, c.live = die, gen, victim, true
	return c
}

// freeCont returns a record to the free list.
func (d *Device) freeCont(c *gcCont) {
	if !c.live {
		panic("ftl: GC continuation record freed twice")
	}
	c.live = false
	d.freeConts = append(d.freeConts, c)
}

// relocate moves up to limit valid pages of the victim block (from the
// round's scan cursor) to freshly allocated pages on the same die. It makes
// the step's mapping updates first and then issues the step's read→program
// pairs into the die FIFO in one media call (flash.RelocateAtDie), which
// acquires die and bus in the same order per-page reads and programs would:
// allocation touches no media state, so the split moves no instant. It
// advances the cursor past the last page moved (to the block's end once no
// valid page is left) and returns the completion instant of the last
// program (now if none moved).
//
//ddvet:hotpath
func (d *Device) relocate(die, victim, limit int) sim.Time {
	ds := &d.dies[die]
	now := d.eng.Now()
	vblk := die*d.cfg.BlocksPerDie + victim
	base := int32(vblk * d.ppb)
	end := base + int32(d.ppb)
	moved := 0
	pp := base + int32(ds.gcScan)
	for moved < limit {
		if pp = d.nextLive(pp, end); pp == end {
			break
		}
		dest, blk := d.allocPage(die, now, true)
		d.clearLive(pp)
		d.mapPage(d.p2l[pp], dest, blk)
		moved++
		pp++
	}
	ds.gcScan = int(pp - base)
	d.blocks[vblk].valid -= int32(moved)
	d.st.GCPagesMoved += uint64(moved)
	d.st.FlashPagesWritten += uint64(moved)
	return d.media.RelocateAtDie(now, die, moved)
}

// gcFinishRound erases the fully relocated victim, records the round's
// pause, and chains the next round at erase completion. It bumps the GC
// generation so any continuation the incremental path still has scheduled
// becomes a no-op.
func (d *Device) gcFinishRound(die int) {
	ds := &d.dies[die]
	eraseDone := d.eraseBlock(die, ds.gcVictim)
	d.GCPauses.Record(eraseDone.Sub(ds.gcStart))
	d.tracer.RecordGC(die, ds.gcStart, eraseDone, int(d.st.GCPagesMoved-ds.gcMoved0))
	d.fr.Record(d.eng.Now(), "gc-round", uint64(die), int64(len(ds.free)))
	d.st.GCRuns++
	ds.gcVictim = -1
	ds.gcGen++
	d.eng.AtArg(eraseDone, gcRoundWake, d.allocCont(die, ds.gcGen, -1))
}

// eraseBlock issues the erase into the die FIFO (it lands after the
// relocation ops already queued there) and returns the block to the free
// list. Accounting frees it immediately; any later program allocated from
// it is FIFO-ordered after the erase on the same die, so virtual time stays
// correct.
func (d *Device) eraseBlock(die, victim int) sim.Time {
	ds := &d.dies[die]
	meta := &d.blocks[die*d.cfg.BlocksPerDie+victim]
	if meta.valid != 0 {
		panic("ftl: erasing a block with valid pages")
	}
	if meta.free {
		panic("ftl: erasing a block already in the free pool")
	}
	eraseDone := d.media.SubmitAtDie(d.eng.Now(), die, flash.Erase)
	meta.erases++
	d.st.Erases++
	if meta.bad && len(ds.free) >= d.lowWater && ds.retired < d.cfg.BlocksPerDie/4 {
		// Grown-bad block: retire it instead of returning it to the free
		// pool. Retirement is skipped when the die is short on clean blocks
		// (losing one would starve the GC reserve) or has already lost a
		// quarter of its capacity — then the block stays in service, as
		// real FTLs keep marginal blocks alive when out of spares.
		meta.bad = false
		meta.retired = true
		ds.retired++
		d.st.GrownBadBlocks++
		return eraseDone
	}
	meta.bad = false
	meta.free = true
	// The pool holds block indexes, not recycled records, so nothing is
	// left stale; the meta.free check above is its double-free guard.
	ds.free = append(ds.free, victim) //lint:ddvet:allow slabsafety block indexes, not records; meta.free is the double-free guard
	return eraseDone
}

// selectVictim picks the die's next GC victim per the configured policy,
// skipping the active block, free blocks, a victim already under
// collection, and fully valid blocks (nothing to reclaim). Ties go to the
// less-worn block (wear-aware), then to the lower index. Returns -1 when
// no block qualifies.
//
// Greedy (fewest valid pages, the highest 1-u score) ranks blocks by one
// integer key, valid count above erase count, so the scan makes a single
// comparison per block and checks the die's open and collected blocks only
// for a block that would win.
func (d *Device) selectVictim(die int) int {
	ds := &d.dies[die]
	blocks := d.blocks[die*d.cfg.BlocksPerDie : (die+1)*d.cfg.BlocksPerDie]
	if d.cfg.Policy == CostBenefit {
		return d.costBenefitVictim(ds, blocks)
	}
	best := -1
	bestKey := uint64(math.MaxUint64)
	for b := range blocks {
		meta := &blocks[b]
		if meta.free || meta.retired || int(meta.valid) >= d.ppb {
			continue
		}
		key := uint64(meta.valid)<<32 | uint64(meta.erases)
		if key < bestKey && b != ds.active && b != ds.gcActive && b != ds.gcVictim {
			best, bestKey = b, key
		}
	}
	return best
}

// costBenefitVictim is selectVictim's cost-benefit scan: the highest
// (1-u)/(1+u)·age score.
func (d *Device) costBenefitVictim(ds *dieState, blocks []blockMeta) int {
	best := -1
	var bestScore float64
	now := d.eng.Now()
	for b := range blocks {
		meta := &blocks[b]
		if meta.free || meta.retired || b == ds.active || b == ds.gcActive ||
			b == ds.gcVictim || int(meta.valid) >= d.ppb {
			continue
		}
		u := float64(meta.valid) / float64(d.ppb)
		age := float64(now.Sub(meta.lastWrite)) + 1
		score := (1 - u) / (1 + u) * age
		if best < 0 || score > bestScore ||
			(score == bestScore && meta.erases < blocks[best].erases) {
			best, bestScore = b, score
		}
	}
	return best
}

// foregroundGC is the write-cliff path: no die can host-allocate, so the
// write stalls while the FTL completes GC rounds synchronously (their
// relocations and erases enter the die FIFO ahead of the stalled program).
// Each completed round frees one block net of at most one opened
// destination, so the free pool reaches the host threshold after at most a
// couple of rounds unless the die has nothing reclaimable — then the next
// die is tried. Returns the die that now has space.
func (d *Device) foregroundGC(now sim.Time) int {
	d.st.ForegroundGCs++
	die := d.allocRR
	for i := 0; i < d.numDies; i++ {
		die = d.nextDie(die)
		ds := &d.dies[die]
		// The stalled program waits behind whatever these rounds push into
		// the die FIFO: the free-horizon growth beyond max(now, horizon) is
		// the GC-attributed share of its service time.
		stallBase := d.media.DieFreeAt(die)
		if stallBase < now {
			stallBase = now
		}
		// Collect until the host can allocate; 2*BlocksPerDie rounds is an
		// unreachable backstop (each round erases a block).
		for r := 0; !d.hostCanAlloc(die) && r < 2*d.cfg.BlocksPerDie; r++ {
			if ds.gcVictim >= 0 {
				// A round is mid-flight: finish it in place of its scheduled
				// continuations (gcFinishRound voids them via the generation).
				d.relocate(die, ds.gcVictim, d.ppb)
				d.gcFinishRound(die)
				continue
			}
			victim := d.selectVictim(die)
			if victim < 0 {
				break // everything on the die is fully valid
			}
			ds.gcOn = true
			ds.gcVictim = victim
			ds.gcScan = 0
			ds.gcStart = now
			ds.gcMoved0 = d.st.GCPagesMoved
			d.relocate(die, victim, d.ppb)
			d.gcFinishRound(die)
		}
		if d.hostCanAlloc(die) {
			if after := d.media.DieFreeAt(die); after > stallBase {
				d.fgStall += after.Sub(stallBase)
			}
			d.allocRR = die
			return die
		}
	}
	panic("ftl: no die reclaimable under write pressure (logical capacity exceeds physical?)")
}

// precondition ages the device: map PreconditionPct of the logical space
// sequentially, then overwrite ScramblePct of those pages in a
// deterministic pseudo-random order to fragment block validity. It runs in
// pure accounting (no media work, no events, no GC) — preconditioning
// happens "before" the simulation starts, as the paper pre-conditions the
// disk before each experiment.
//
// A die takes preconditioning writes only while its host active block has
// room or it holds more than highWater free blocks, so the aged device
// starts with a full high-water free pool on every die and no die already
// inside the GC-trigger zone — otherwise every die would fire a
// synchronized GC wave at t=0 and the opening of every experiment would
// measure that artifact. The fill stops once no die can take a page (the
// filled prefix stands), and ScramblePct is an upper bound: scrambling
// runs only after a complete fill and stops once the clean spare is
// consumed, leaving the invalidity it created spread across the data
// blocks. (Compacting with an accounting GC instead would hand over a
// device whose every block is fully valid — a state where the first real
// GC rounds are pathologically expensive and nothing like a steady-state
// aged drive.)
//
// The state is computed in closed form, not by allocating page by page.
// The device is fresh: no block has been erased or retired, so each die
// opens its free blocks in index order, and every die holds the same
// capacity of (BlocksPerDie-highWater)·PagesPerBlock pages. The
// round-robin host cursor therefore accepts the next die every time, all
// dies fill in lockstep, and the preconditioning stream is fixed: its
// write j lands on die (j+1) mod N at that die's page j/N. Only the
// scramble's overwrites depend on the data; every die's blocks, free list
// and cursors follow from the number of pages it took.
func (d *Device) precondition() {
	n := int64(d.numDies)
	capacity := n * int64(max(0, d.cfg.BlocksPerDie-d.highWater)*d.ppb)
	fill := d.logPages * int64(d.cfg.PreconditionPct) / 100
	mapped := min(fill, capacity)
	var scramble int64
	if mapped == fill && d.cfg.ScramblePct > 0 {
		scramble = min(fill*int64(d.cfg.ScramblePct)/100, capacity-mapped)
	}
	written := mapped + scramble

	// The fill: write lp maps logical page lp. l2p is stored in logical
	// order, one round of dies at a time, and p2l die by die in page
	// order, so both passes store sequentially.
	ppd := int32(d.pagesPerDie)
	for lp, page := int64(0), int32(0); lp < mapped; page++ {
		for i := 0; i < d.numDies && lp < mapped; i, lp = i+1, lp+1 {
			d.l2p[lp] = int32(d.nextDie(i))*ppd + page
		}
	}
	for lp := mapped; lp < d.logPages; lp++ {
		d.l2p[lp] = -1
	}
	bpd := d.cfg.BlocksPerDie
	for k := range d.dies {
		// The die takes the write at position i of every round.
		i := int64((k + d.numDies - 1) % d.numDies)
		base := int32(k) * ppd
		p2l := d.p2l[base : base+ppd]
		for page, lp := 0, i; lp < mapped; page, lp = page+1, lp+n {
			p2l[page] = int32(lp)
		}
		// Every page the stream writes is live and counted in its block
		// until the scramble below overwrites it.
		pages := int(written / n)
		if i < written%n {
			pages++
		}
		d.setLiveRange(base, base+int32(pages))
		opened := (pages + d.ppb - 1) / d.ppb
		blocks := d.blocks[k*bpd : k*bpd+opened]
		for b := range blocks {
			blocks[b].valid = int32(d.ppb)
			blocks[b].free = false
		}
		ds := &d.dies[k]
		if opened > 0 {
			ds.active = opened - 1
			ds.writePtr = pages - ds.active*d.ppb
			blocks[ds.active].valid = int32(ds.writePtr)
		}
		// openBlock's pops, in place: the pool keeps its backing array,
		// so eraseBlock's appends never grow it.
		ds.free = ds.free[:copy(ds.free, ds.free[opened:])]
	}
	d.allocRR = int(written % n)

	if scramble > 0 {
		rng := sim.NewRand(d.cfg.Seed + 0xa9ed)
		die, page := d.nextDie(int(mapped%n)), int32(mapped/n) // write mapped
		for ; scramble > 0; scramble-- {
			lp := rng.Int63n(fill)
			d.unmapPhys(d.l2p[lp])
			pp := int32(die)*ppd + page
			d.l2p[lp] = pp
			d.p2l[pp] = int32(lp)
			if die = d.nextDie(die); die == d.nextDie(0) {
				page++ // the next write opens a new round
			}
		}
	}
}

// setLiveRange marks the physical pages [from, to) live, a bitmap word at
// a time.
func (d *Device) setLiveRange(from, to int32) {
	for pp := from; pp < to; {
		n := min(uint32(to-pp), 64-uint32(pp)&63)
		d.live[uint32(pp)>>6] |= ^uint64(0) >> (64 - n) << (uint32(pp) & 63)
		pp += int32(n)
	}
}

// CheckInvariants verifies the mapping-table invariants the fuzzer asserts:
// L2P/P2L are mutually consistent (no physical page mapped twice), the live
// bitmap marks exactly the mapped physical pages (so a stale p2l entry is
// never taken for a valid one), per-block valid counts match the bitmap,
// free blocks are empty, and no die's free pool is negative or over
// capacity. Once the engine has drained, every GC continuation record must
// be back in the pool and every TRIM wake batch drained.
func (d *Device) CheckInvariants() error {
	mappedL := 0
	for lp, pp := range d.l2p {
		if pp < 0 {
			continue
		}
		mappedL++
		if int64(pp) >= d.physPages {
			return fmt.Errorf("l2p[%d] = %d beyond physical space", lp, pp)
		}
		if !d.isLive(pp) {
			return fmt.Errorf("l2p[%d] = %d but the page's live bit is clear", lp, pp)
		}
		if d.p2l[pp] != int32(lp) {
			return fmt.Errorf("l2p[%d] = %d but p2l[%d] = %d", lp, pp, pp, d.p2l[pp])
		}
	}
	mappedP := 0
	validByBlock := make([]int32, len(d.blocks))
	for pp := int32(0); int64(pp) < d.physPages; pp++ {
		if !d.isLive(pp) {
			continue
		}
		mappedP++
		lp := d.p2l[pp]
		if lp < 0 || int64(lp) >= d.logPages {
			return fmt.Errorf("live page %d: p2l = %d outside the logical space", pp, lp)
		}
		if d.l2p[lp] != pp {
			return fmt.Errorf("live page %d: p2l = %d but l2p[%d] = %d (stale entry taken as valid?)", pp, lp, lp, d.l2p[lp])
		}
		validByBlock[d.blockOfPhys(pp)]++
	}
	if mappedL != mappedP {
		return fmt.Errorf("%d logical mappings vs %d live physical pages (aliasing)", mappedL, mappedP)
	}
	if tail := d.physPages % 64; tail != 0 && d.live[len(d.live)-1]>>tail != 0 {
		return fmt.Errorf("live bits set beyond the %d physical pages", d.physPages)
	}
	if d.eng.Pending() == 0 && len(d.freeConts) != d.conts {
		return fmt.Errorf("engine drained but %d of %d GC continuation records are outside the pool",
			d.conts-len(d.freeConts), d.conts)
	}
	if d.eng.Pending() == 0 && d.wakeHead != len(d.wakeQ) {
		return fmt.Errorf("engine drained but the TRIM wake FIFO holds %d undrained entries",
			len(d.wakeQ)-d.wakeHead)
	}
	for _, c := range d.freeConts {
		if c.live {
			return fmt.Errorf("GC continuation record for die %d pooled while live", c.die)
		}
	}
	for b := range d.blocks {
		if d.blocks[b].valid != validByBlock[b] {
			return fmt.Errorf("block %d: valid count %d, reverse map says %d", b, d.blocks[b].valid, validByBlock[b])
		}
		if d.blocks[b].valid < 0 {
			return fmt.Errorf("block %d: negative valid count %d", b, d.blocks[b].valid)
		}
		if d.blocks[b].free && d.blocks[b].valid != 0 {
			return fmt.Errorf("free block %d holds %d valid pages", b, d.blocks[b].valid)
		}
		if d.blocks[b].retired {
			if d.blocks[b].free {
				return fmt.Errorf("retired block %d marked free", b)
			}
			if d.blocks[b].valid != 0 {
				return fmt.Errorf("retired block %d holds %d valid pages", b, d.blocks[b].valid)
			}
		}
	}
	for i := range d.dies {
		if len(d.dies[i].free) < 0 || len(d.dies[i].free) > d.cfg.BlocksPerDie {
			return fmt.Errorf("die %d: free pool size %d out of range", i, len(d.dies[i].free))
		}
		seen := make(map[int]bool, len(d.dies[i].free))
		for _, b := range d.dies[i].free {
			if seen[b] {
				return fmt.Errorf("die %d: block %d in free pool twice", i, b)
			}
			seen[b] = true
			if !d.blocks[i*d.cfg.BlocksPerDie+b].free {
				return fmt.Errorf("die %d: block %d in free pool but not marked free", i, b)
			}
		}
		retired := 0
		for b := 0; b < d.cfg.BlocksPerDie; b++ {
			if d.blocks[i*d.cfg.BlocksPerDie+b].retired {
				retired++
			}
		}
		if retired != d.dies[i].retired {
			return fmt.Errorf("die %d: retired count %d, block scan says %d", i, d.dies[i].retired, retired)
		}
	}
	return nil
}
