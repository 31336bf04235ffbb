package flash

import (
	"math/rand"
	"testing"
	"testing/quick"

	"daredevil/internal/sim"
)

func smallConfig() Config {
	return Config{
		Channels:        4,
		ChipsPerChannel: 2,
		PageSize:        4096,
		ReadLatency:     70 * sim.Microsecond,
		ProgramLatency:  420 * sim.Microsecond,
		XferLatency:     3 * sim.Microsecond,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Channels: 0, ChipsPerChannel: 1, PageSize: 1, ReadLatency: 1, ProgramLatency: 1},
		{Channels: 1, ChipsPerChannel: 0, PageSize: 1, ReadLatency: 1, ProgramLatency: 1},
		{Channels: 1, ChipsPerChannel: 1, PageSize: 0, ReadLatency: 1, ProgramLatency: 1},
		{Channels: 1, ChipsPerChannel: 1, PageSize: 1, ReadLatency: 0, ProgramLatency: 1},
		{Channels: 1, ChipsPerChannel: 1, PageSize: 1, ReadLatency: 1, ProgramLatency: 1, XferLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config must panic")
		}
	}()
	New(Config{})
}

func TestPagesCount(t *testing.T) {
	d := New(smallConfig())
	cases := []struct {
		off, size int64
		want      int
	}{
		{0, 4096, 1},
		{0, 4097, 2},
		{100, 4096, 2}, // straddles a page boundary
		{0, 131072, 32},
		{4096, 0, 0},
		{0, 1, 1},
	}
	for _, c := range cases {
		if got := d.Pages(c.off, c.size); got != c.want {
			t.Errorf("Pages(%d, %d) = %d, want %d", c.off, c.size, got, c.want)
		}
	}
}

func TestSingleReadLatency(t *testing.T) {
	d := New(smallConfig())
	done := d.SubmitIO(0, 0, 4096, Read)
	want := sim.Time(0).Add(70*sim.Microsecond + 3*sim.Microsecond)
	if done != want {
		t.Fatalf("read done at %v, want %v", done, want)
	}
}

func TestSingleProgramLatency(t *testing.T) {
	d := New(smallConfig())
	done := d.SubmitIO(0, 0, 4096, Program)
	want := sim.Time(0).Add(3*sim.Microsecond + 420*sim.Microsecond)
	if done != want {
		t.Fatalf("program done at %v, want %v", done, want)
	}
}

func TestStripingParallelism(t *testing.T) {
	d := New(smallConfig())
	// 4 pages across 4 channels: all dies work in parallel, so the request
	// finishes roughly one page-read later, not four.
	done := d.SubmitIO(0, 0, 4*4096, Read)
	oneRead := 73 * sim.Microsecond
	if done > sim.Time(0).Add(oneRead+3*4*sim.Microsecond) {
		t.Fatalf("4-page striped read done at %v, want ≈%v (parallel)", done, oneRead)
	}
}

func TestSameChipSerializes(t *testing.T) {
	d := New(smallConfig())
	// Two reads of the same page hit the same die and serialize.
	first := d.SubmitIO(0, 0, 4096, Read)
	second := d.SubmitIO(0, 0, 4096, Read)
	if second <= first {
		t.Fatalf("same-die reads did not serialize: %v then %v", first, second)
	}
	if second.Sub(first) < 70*sim.Microsecond {
		t.Fatalf("second read gained only %v over first, want >= tR", second.Sub(first))
	}
}

func TestLargeWriteSlowerThanLargeRead(t *testing.T) {
	dr := New(smallConfig())
	dw := New(smallConfig())
	rDone := dr.SubmitIO(0, 0, 131072, Read)
	wDone := dw.SubmitIO(0, 0, 131072, Program)
	if wDone <= rDone {
		t.Fatalf("128KB write (%v) should be slower than read (%v)", wDone, rDone)
	}
}

func TestBacklogGrowsUnderLoad(t *testing.T) {
	d := New(smallConfig())
	if d.MaxBacklog(0) != 0 {
		t.Fatal("fresh device must have zero backlog")
	}
	for i := 0; i < 10; i++ {
		d.SubmitIO(0, 0, 131072, Program)
	}
	if d.MaxBacklog(0) < 100*sim.Microsecond {
		t.Fatalf("backlog = %v after flooding, want large", d.MaxBacklog(0))
	}
	if d.QueuedWork(0, 0) == 0 {
		t.Fatal("QueuedWork for flooded die must be positive")
	}
}

func TestStatsCount(t *testing.T) {
	d := New(smallConfig())
	d.SubmitIO(0, 0, 8192, Read)
	d.SubmitIO(0, 0, 4096, Program)
	s := d.Stats()
	if s.PagesRead != 2 || s.PagesWritten != 1 {
		t.Fatalf("stats = %+v, want 2 read / 1 written", s)
	}
}

func TestChipPlacementCoversAllDies(t *testing.T) {
	d := New(smallConfig())
	seen := make(map[[2]int]bool)
	for p := int64(0); p < int64(d.NumChips()); p++ {
		ch, chip := d.chipOf(p)
		if ch < 0 || ch >= 4 || chip < 0 || chip >= 2 {
			t.Fatalf("page %d placed at (%d,%d), out of range", p, ch, chip)
		}
		seen[[2]int{ch, chip}] = true
	}
	if len(seen) != d.NumChips() {
		t.Fatalf("consecutive pages touched %d dies, want %d", len(seen), d.NumChips())
	}
}

// Property: completion never precedes submission plus the minimum service
// time, and a later read of a page never finishes before an earlier read
// of it — reads map by LBA, so every read of one page waits in the same
// die FIFO. Programs make no such promise: they go log-structured to the
// next die in round-robin order, so a read may finish before an earlier
// program of the same page. The input is drawn from a fixed seed, so a
// failure reproduces.
func TestCompletionMonotonicProperty(t *testing.T) {
	prop := func(offs []uint16, writeMask uint16) bool {
		d := New(smallConfig())
		lastRead := map[int64]sim.Time{}
		for i, o := range offs {
			off := int64(o) * 4096
			op := Read
			min := d.Config().ReadLatency
			if writeMask&(1<<(i%16)) != 0 {
				op = Program
				min = d.Config().ProgramLatency
			}
			done := d.SubmitIO(0, off, 4096, op)
			if done < sim.Time(0).Add(min) {
				return false
			}
			if op != Read {
				continue
			}
			page := off / 4096
			if prev, ok := lastRead[page]; ok && done <= prev {
				return false
			}
			lastRead[page] = done
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitPageUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op must panic")
		}
	}()
	New(smallConfig()).SubmitPage(0, 0, Op(99))
}

func TestZeroSizeIO(t *testing.T) {
	d := New(smallConfig())
	if done := d.SubmitIO(42, 0, 0, Read); done != 42 {
		t.Fatalf("zero-size IO done at %v, want 42 (immediate)", done)
	}
}

// TestRelocateAtDieMatchesPerPagePairs checks the batched GC relocation
// call against the per-page calls it replaces: from random die and bus
// pre-states, RelocateAtDie(now, die, n) must return the last of the
// completions of n SubmitAtDie(Read)+SubmitAtDie(Program) pairs (now when
// n is 0) and leave every die, bus and counter as they do. The second
// geometry has a non-power-of-two chip count, so the bus index divides.
func TestRelocateAtDieMatchesPerPagePairs(t *testing.T) {
	odd := smallConfig()
	odd.ChipsPerChannel = 3
	for _, cfg := range []Config{smallConfig(), odd} {
		cfg.EraseLatency = 2 * sim.Millisecond
		rng := sim.NewRand(11)
		for trial := 0; trial < 300; trial++ {
			batched, paired := New(cfg), New(cfg)
			// The same random history on both: any op on any die, at
			// instants spread over a few program times.
			for i := rng.Intn(40); i > 0; i-- {
				at := sim.Time(rng.Int63n(int64(3 * sim.Millisecond)))
				die, op := rng.Intn(batched.NumChips()), Op(rng.Intn(3))
				batched.SubmitAtDie(at, die, op)
				paired.SubmitAtDie(at, die, op)
			}
			now := sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
			die, n := rng.Intn(batched.NumChips()), rng.Intn(10)
			got := batched.RelocateAtDie(now, die, n)
			want := now
			for i := 0; i < n; i++ {
				paired.SubmitAtDie(now, die, Read)
				if t := paired.SubmitAtDie(now, die, Program); t > want {
					want = t
				}
			}
			if got != want {
				t.Fatalf("chips/ch %d trial %d: RelocateAtDie(%v, die %d, %d) = %v, per-page pairs finish at %v",
					cfg.ChipsPerChannel, trial, now, die, n, got, want)
			}
			for i := range batched.chips {
				if a, b := batched.chips[i].FreeAt(), paired.chips[i].FreeAt(); a != b {
					t.Fatalf("chips/ch %d trial %d: die %d free at %v, per-page pairs leave %v", cfg.ChipsPerChannel, trial, i, a, b)
				}
			}
			for i := range batched.channels {
				if a, b := batched.channels[i].FreeAt(), paired.channels[i].FreeAt(); a != b {
					t.Fatalf("chips/ch %d trial %d: bus %d free at %v, per-page pairs leave %v", cfg.ChipsPerChannel, trial, i, a, b)
				}
			}
			if a, b := batched.Stats(), paired.Stats(); a != b {
				t.Fatalf("chips/ch %d trial %d: stats %+v, per-page pairs count %+v", cfg.ChipsPerChannel, trial, a, b)
			}
		}
	}
}
