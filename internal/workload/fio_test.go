package workload

import (
	"testing"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/sim"
)

// fakeStack completes every request after a fixed delay, recording traffic.
// It lets workload logic be tested without the NVMe model. Snapshots are
// value copies: the job recycles request objects after completion, so a
// retained pointer would alias whichever request occupies the memory now.
type fakeStack struct {
	eng   *sim.Engine
	delay sim.Duration

	submitted  []*block.Request // value snapshots taken at completion
	registered []*block.Tenant
	ionice     int
	migrations int
}

func (f *fakeStack) Name() string             { return "fake" }
func (f *fakeStack) Register(t *block.Tenant) { f.registered = append(f.registered, t) }
func (f *fakeStack) Submit(rq *block.Request) sim.Duration {
	f.eng.After(f.delay, func() {
		rq.CQEPostTime = f.eng.Now()
		snap := *rq
		f.submitted = append(f.submitted, &snap)
		snap.CompleteTime = f.eng.Now() // Complete below recycles rq
		rq.Complete(f.eng.Now())
	})
	return 0
}
func (f *fakeStack) SetIonice(t *block.Tenant, c block.Class) {
	t.Class = c
	f.ionice++
}
func (f *fakeStack) MigrateTenant(t *block.Tenant, core int) {
	t.Core = core
	f.migrations++
}

func newFakeWorld(t *testing.T, delay sim.Duration) (*sim.Engine, *cpus.Pool, *fakeStack) {
	t.Helper()
	eng := sim.New()
	pool := cpus.NewPool(eng, 4, cpus.Config{})
	return eng, pool, &fakeStack{eng: eng, delay: delay}
}

func TestJobKeepsIODepthInFlight(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 100*sim.Microsecond)
	cfg := DefaultTTenant("t", 0)
	cfg.IODepth = 8
	j := NewJob(1, cfg)
	j.Start(eng, pool, fs)
	// The closed loop never exceeds IODepth outstanding; reissue work may
	// briefly sit on the core, so it can dip below.
	maxSeen := uint64(0)
	for probe := sim.Duration(0); probe < 10*sim.Millisecond; probe += 100 * sim.Microsecond {
		eng.After(probe, func() {
			if inflight := j.Issued() - j.Done.Ops; inflight > maxSeen {
				maxSeen = inflight
			}
		})
	}
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if maxSeen == 0 || maxSeen > 8 {
		t.Fatalf("peak logical in-flight = %d, want in (0, 8]", maxSeen)
	}
	if final := j.Issued() - j.Done.Ops; final > 8 {
		t.Fatalf("in-flight %d exceeds IODepth", final)
	}
}

func TestJobClosedLoopReissues(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 50*sim.Microsecond)
	j := NewJob(1, DefaultLTenant("l", 0))
	j.Start(eng, pool, fs)
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if j.Done.Ops < 100 {
		t.Fatalf("completed only %d ops in 10ms at 50µs service", j.Done.Ops)
	}
	if j.Issued() < j.Done.Ops {
		t.Fatal("issued must be >= completed")
	}
}

func TestJobLatencyRecorded(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 200*sim.Microsecond)
	j := NewJob(1, DefaultLTenant("l", 0))
	j.Start(eng, pool, fs)
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if j.Lat.Count() == 0 {
		t.Fatal("no latency recorded")
	}
	if j.Lat.Mean() < 200*sim.Microsecond {
		t.Fatalf("mean latency %v below the service delay", j.Lat.Mean())
	}
}

func TestJobStopDrains(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 100*sim.Microsecond)
	j := NewJob(1, DefaultTTenant("t", 0))
	j.Start(eng, pool, fs)
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	j.Stop()
	if !j.Stopped() {
		t.Fatal("Stopped() should be true")
	}
	eng.Run() // must terminate: no further issues
	for _, rq := range fs.submitted {
		if rq.CompleteTime == 0 {
			t.Fatal("in-flight requests must drain after Stop")
		}
	}
}

func TestJobRandomPatternWithinSpan(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 10*sim.Microsecond)
	cfg := DefaultLTenant("l", 0)
	cfg.Span = 1 << 20
	j := NewJob(1, cfg)
	base := j.Cfg.OffsetBase
	if base == 0 {
		t.Fatal("NewJob must derive a per-job offset base")
	}
	j.Start(eng, pool, fs)
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	offsets := map[int64]bool{}
	for _, rq := range fs.submitted {
		if rq.Offset < base || rq.Offset+rq.Size > base+cfg.Span {
			t.Fatalf("offset %d outside the job's region [%d, %d)", rq.Offset, base, base+cfg.Span)
		}
		if (rq.Offset-base)%cfg.BS != 0 {
			t.Fatalf("offset %d not block-aligned within the region", rq.Offset)
		}
		offsets[rq.Offset] = true
	}
	if len(offsets) < 10 {
		t.Fatalf("random pattern produced only %d distinct offsets", len(offsets))
	}
}

func TestJobSequentialPatternWraps(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 10*sim.Microsecond)
	cfg := DefaultTTenant("t", 0)
	cfg.Span = 4 * cfg.BS
	cfg.IODepth = 1
	j := NewJob(1, cfg)
	j.Start(eng, pool, fs)
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if len(fs.submitted) < 8 {
		t.Fatalf("too few submissions: %d", len(fs.submitted))
	}
	for i, rq := range fs.submitted[:8] {
		want := j.Cfg.OffsetBase + int64(i%4)*cfg.BS
		if rq.Offset != want {
			t.Fatalf("seq offset[%d] = %d, want %d", i, rq.Offset, want)
		}
	}
}

func TestJobReadPctMix(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 5*sim.Microsecond)
	cfg := DefaultLTenant("l", 0)
	cfg.ReadPct = 50
	j := NewJob(1, cfg)
	j.Start(eng, pool, fs)
	eng.RunUntil(sim.Time(20 * sim.Millisecond))
	reads := 0
	for _, rq := range fs.submitted {
		if rq.Op == block.OpRead {
			reads++
		}
	}
	frac := float64(reads) / float64(len(fs.submitted))
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("read fraction %v, want ≈0.5", frac)
	}
}

func TestJobOutlierEvery(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 5*sim.Microsecond)
	cfg := DefaultTTenant("t", 0)
	cfg.IODepth = 1
	cfg.OutlierEvery = 4
	j := NewJob(1, cfg)
	j.Start(eng, pool, fs)
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	sync := 0
	for _, rq := range fs.submitted {
		if rq.Flags.Sync() {
			sync++
		}
	}
	want := len(fs.submitted) / 4
	if sync < want-1 || sync > want+1 {
		t.Fatalf("sync-flagged = %d of %d, want ≈%d", sync, len(fs.submitted), want)
	}
}

func TestJobDeterministicAcrossRuns(t *testing.T) {
	run := func() []int64 {
		eng, pool, fs := newFakeWorld(t, 10*sim.Microsecond)
		j := NewJob(1, DefaultLTenant("l", 0))
		j.Start(eng, pool, fs)
		eng.RunUntil(sim.Time(2 * sim.Millisecond))
		var offs []int64
		for _, rq := range fs.submitted {
			offs = append(offs, rq.Offset)
		}
		return offs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at request %d", i)
		}
	}
}

func TestJobResetStats(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 10*sim.Microsecond)
	j := NewJob(1, DefaultLTenant("l", 0))
	j.EnableComponents()
	j.Start(eng, pool, fs)
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if j.Lat.Count() == 0 {
		t.Fatal("setup: no stats")
	}
	j.ResetStats()
	if j.Lat.Count() != 0 || j.Done.Ops != 0 || j.SubWait.Count() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestJobSeriesCollects(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 10*sim.Microsecond)
	j := NewJob(1, DefaultLTenant("l", 0))
	j.EnableSeries(sim.Millisecond)
	j.Start(eng, pool, fs)
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	pts := j.LatSeries.Finish(eng.Now())
	if len(pts) < 4 {
		t.Fatalf("latency series has %d windows, want >= 4", len(pts))
	}
	tp := j.TputSeries.Finish(eng.Now())
	if len(tp) == 0 || tp[0].Value <= 0 {
		t.Fatal("throughput series empty")
	}
}

func TestJobStartTwicePanics(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 10*sim.Microsecond)
	j := NewJob(1, DefaultLTenant("l", 0))
	j.Start(eng, pool, fs)
	defer func() {
		if recover() == nil {
			t.Fatal("double Start must panic")
		}
	}()
	j.Start(eng, pool, fs)
}

func TestNewJobValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero BS must panic")
		}
	}()
	NewJob(1, FIOConfig{Name: "bad", IODepth: 1})
}

func TestTenantRegistration(t *testing.T) {
	eng, pool, fs := newFakeWorld(t, 10*sim.Microsecond)
	j := NewJob(7, DefaultLTenant("l", 2))
	j.Start(eng, pool, fs)
	if len(fs.registered) != 1 || fs.registered[0] != j.Tenant {
		t.Fatal("job must register its tenant")
	}
	if j.Tenant.Core != 2 || j.Tenant.Class != block.ClassRT {
		t.Fatal("tenant attributes wrong")
	}
}
