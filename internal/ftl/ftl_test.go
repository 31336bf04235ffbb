package ftl

import (
	"testing"

	"daredevil/internal/flash"
	"daredevil/internal/sim"
)

// smallFlash is an 8-die geometry small enough to drive GC quickly.
func smallFlash() flash.Config {
	return flash.Config{
		Channels:        4,
		ChipsPerChannel: 2,
		PageSize:        4096,
		ReadLatency:     70 * sim.Microsecond,
		ProgramLatency:  420 * sim.Microsecond,
		XferLatency:     3 * sim.Microsecond,
		EraseLatency:    2 * sim.Millisecond,
	}
}

// smallFTL pairs with smallFlash: 8 dies x 16 blocks x 16 pages = 2048
// physical pages, 30% OP -> 1433 logical pages. OP well above the 2-3
// block clean reserve, so data blocks carry real invalidity.
func smallFTL() Config {
	return Config{
		PagesPerBlock:   16,
		BlocksPerDie:    16,
		OPPct:           30,
		Policy:          Greedy,
		GCBatchPages:    4,
		PreconditionPct: 100,
		ScramblePct:     30,
		Seed:            7,
	}
}

func newSmall(t *testing.T, cfg Config) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.New()
	d := New(eng, flash.New(smallFlash()), cfg)
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after New: %v", err)
	}
	return eng, d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{PagesPerBlock: 0, BlocksPerDie: 10, OPPct: 7},
		{PagesPerBlock: 16, BlocksPerDie: 2, OPPct: 7},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 1},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 95},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 7, GCLowWater: 3, GCHighWater: 2},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 7, GCHighWater: 1}, // below the default low of 2
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 7, GCHighWater: 2}, // equal to the default low
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 7, PreconditionPct: 101},
		{PagesPerBlock: 16, BlocksPerDie: 10, OPPct: 7, ScramblePct: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestPreconditionFillsLogicalSpace(t *testing.T) {
	_, d := newSmall(t, smallFTL())
	if got, want := d.ValidPages(), d.LogicalPages(); got != want {
		t.Fatalf("preconditioned valid pages = %d, want full logical space %d", got, want)
	}
	// Preconditioning is accounting-only: no media work, no pending events.
	if st := d.Stats(); st.HostPagesWritten != 0 || st.GCRuns != 0 {
		t.Fatalf("stats not clean after preconditioning: %+v", st)
	}
	if fl := d.media.Stats(); fl.PagesWritten != 0 || fl.Erases != 0 {
		t.Fatalf("preconditioning touched the media: %+v", fl)
	}
}

// churn performs n single-page overwrites at pseudo-random logical pages,
// draining the event queue (GC chains) as it goes.
func churn(eng *sim.Engine, d *Device, seed uint64, n int) {
	rng := sim.NewRand(seed)
	for i := 0; i < n; i++ {
		lp := rng.Int63n(d.LogicalPages())
		d.SubmitIO(eng.Now(), lp*4096, 4096, flash.Program)
		eng.Run()
	}
}

func TestGCReclaimsAndAmplifies(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	churn(eng, d, 42, 4000)
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
	st := d.Stats()
	if st.GCRuns == 0 {
		t.Fatal("no GC ran on a full device under overwrite churn")
	}
	if wa := st.WriteAmplification(); wa <= 1.0 {
		t.Fatalf("write amplification = %v, want > 1 on an aged device", wa)
	}
	if st.Erases == 0 || st.GCPagesMoved == 0 {
		t.Fatalf("GC accounting empty: %+v", st)
	}
	if d.GCPauses.Count() != st.GCRuns {
		t.Fatalf("pause histogram count %d != GC runs %d", d.GCPauses.Count(), st.GCRuns)
	}
	if d.GCPauses.Max() < 2*sim.Millisecond {
		t.Fatalf("max GC pause %v shorter than one erase", d.GCPauses.Max())
	}
}

func TestWearLeveling(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	churn(eng, d, 1, 6000)
	min, max := d.EraseCounts()
	if min == 0 {
		t.Fatal("some block never erased under heavy uniform churn: wear leveling ineffective")
	}
	if max > 4*min+8 {
		t.Fatalf("wear spread too wide: min=%d max=%d", min, max)
	}
}

func TestReadsMappedAndUnmapped(t *testing.T) {
	cfg := smallFTL()
	cfg.PreconditionPct = 0
	cfg.ScramblePct = 0
	eng, d := newSmall(t, cfg)
	before := d.media.Stats().PagesRead
	// Unmapped read: falls back to static placement, still pays media cost.
	if done := d.SubmitIO(eng.Now(), 0, 4096, flash.Read); done <= eng.Now() {
		t.Fatal("unmapped read completed instantly")
	}
	if got := d.media.Stats().PagesRead; got != before+1 {
		t.Fatalf("unmapped read media pages = %d, want %d", got, before+1)
	}
	// Mapped read: goes to the mapped die.
	d.SubmitIO(eng.Now(), 0, 4096, flash.Program)
	eng.Run()
	if done := d.SubmitIO(eng.Now(), 0, 4096, flash.Read); done <= eng.Now() {
		t.Fatal("mapped read completed instantly")
	}
	if got := d.media.Stats().PagesRead; got != before+2 {
		t.Fatalf("mapped read media pages = %d, want %d", got, before+2)
	}
}

func TestTrimInvalidatesAndSkipsMedia(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	validBefore := d.ValidPages()
	reads, writes := d.media.Stats().PagesRead, d.media.Stats().PagesWritten
	n := d.Trim(0, 64*4096)
	if n != 64 {
		t.Fatalf("trimmed %d pages of a fully mapped range, want 64", n)
	}
	if got := d.ValidPages(); got != validBefore-64 {
		t.Fatalf("valid pages %d after trim, want %d", got, validBefore-64)
	}
	if st := d.media.Stats(); st.PagesRead != reads || st.PagesWritten != writes {
		t.Fatal("trim performed media work")
	}
	if d.Stats().TrimmedPages != 64 {
		t.Fatalf("TrimmedPages = %d, want 64", d.Stats().TrimmedPages)
	}
	// Trimming the same range again is a no-op.
	if n := d.Trim(0, 64*4096); n != 0 {
		t.Fatalf("second trim invalidated %d pages, want 0", n)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after trim: %v", err)
	}
	_ = eng
}

func TestTrimReducesWriteAmplification(t *testing.T) {
	run := func(trim bool) float64 {
		eng, d := newSmall(t, smallFTL())
		rng := sim.NewRand(99)
		var cursor int64
		for i := 0; i < 3000; i++ {
			lp := rng.Int63n(d.LogicalPages())
			d.SubmitIO(eng.Now(), lp*4096, 4096, flash.Program)
			if trim && i%4 == 3 {
				d.Trim(cursor*4096, 16*4096)
				cursor = (cursor + 16) % d.LogicalPages()
			}
			eng.Run()
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("invariants (trim=%v): %v", trim, err)
		}
		return d.Stats().WriteAmplification()
	}
	without, with := run(false), run(true)
	if with >= without {
		t.Fatalf("TRIM did not reduce WA: with=%v without=%v", with, without)
	}
}

func TestForegroundGCUnderBurst(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	// Synchronous burst at one instant: background GC chains cannot make
	// progress between writes, so the write cliff must engage.
	rng := sim.NewRand(5)
	for i := 0; i < 2000; i++ {
		lp := rng.Int63n(d.LogicalPages())
		d.SubmitIO(eng.Now(), lp*4096, 4096, flash.Program)
	}
	if d.Stats().ForegroundGCs == 0 {
		t.Fatal("synchronous overwrite burst never hit the foreground-GC cliff")
	}
	eng.Run()
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after burst: %v", err)
	}
}

func TestCostBenefitPolicy(t *testing.T) {
	cfg := smallFTL()
	cfg.Policy = CostBenefit
	eng, d := newSmall(t, cfg)
	churn(eng, d, 11, 3000)
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants under cost-benefit: %v", err)
	}
	if d.Stats().GCRuns == 0 {
		t.Fatal("cost-benefit GC never ran")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, [7]int64) {
		eng, d := newSmall(t, smallFTL())
		churn(eng, d, 123, 2500)
		s := d.GCPauses.Snapshot()
		return d.Stats(), [7]int64{int64(s.Count), int64(s.Mean), int64(s.P50),
			int64(s.P90), int64(s.P99), int64(s.P999), int64(s.Max)}
	}
	a, ah := run()
	b, bh := run()
	if a != b {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a, b)
	}
	if ah != bh {
		t.Fatalf("GC-pause histograms differ across identical runs:\n%v\n%v", ah, bh)
	}
}

func TestResetStatsKeepsMapping(t *testing.T) {
	eng, d := newSmall(t, smallFTL())
	churn(eng, d, 3, 500)
	valid := d.ValidPages()
	d.ResetStats()
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("stats not cleared: %+v", st)
	}
	if d.GCPauses.Count() != 0 {
		t.Fatal("pause histogram not cleared")
	}
	if d.ValidPages() != valid {
		t.Fatal("ResetStats disturbed the mapping")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reset: %v", err)
	}
}

// TestNextLiveMatchesPageScan checks the word-at-a-time bitmap scan
// against a page-by-page one, over ranges that start and end inside
// words, span several words, and run to the bitmap's end.
func TestNextLiveMatchesPageScan(t *testing.T) {
	rng := sim.NewRand(17)
	d := &Device{live: make([]uint64, 4)}
	for trial := 0; trial < 2000; trial++ {
		for i := range d.live {
			// Sparse and dense words alike, plus empty ones.
			switch rng.Intn(3) {
			case 0:
				d.live[i] = 0
			case 1:
				d.live[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			default:
				d.live[i] = rng.Uint64()
			}
		}
		from := int32(rng.Intn(257))
		end := int32(rng.Intn(257))
		want := end
		for pp := from; pp < end; pp++ {
			if d.isLive(pp) {
				want = pp
				break
			}
		}
		if got := d.nextLive(from, end); got != want {
			t.Fatalf("nextLive(%d, %d) = %d, want %d (bitmap %x)", from, end, got, want, d.live)
		}
	}
}
