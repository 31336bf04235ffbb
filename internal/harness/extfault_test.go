package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"daredevil/internal/fault"
	"daredevil/internal/ftl"
	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

// TestConservationUnderFaults is the acceptance invariant for the error
// model: with chips stalled for the entire run, CQEs randomly dropped, and
// programs failing into grown-bad blocks, every submitted request must still
// end exactly once — completed or terminally failed — on every stack. The
// whole-run stall guarantees some requests can never succeed, so the capped
// requeue path must produce terminal verdicts rather than hanging the cell.
// Time is conserved too: every traced span's layers sum to its total.
func TestConservationUnderFaults(t *testing.T) {
	s := fault.Schedule{
		Seed: 7,
		ChipStalls: []fault.ChipStall{{
			Window: fault.Window{Start: 0, End: sim.Duration(1) << 50},
			// One channel's worth of chips dark for the whole run.
			FirstChip: 0, NumChips: 8,
		}},
		DropCQEProb:     0.005,
		ProgramFailProb: 0.05,
	}
	for _, kind := range AllKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m := SVM(4)
			m.Fault = &s
			m.NVMe.CmdTimeout = 5 * sim.Millisecond
			// The grown-bad-block half of the schedule needs the FTL; run it
			// on the spectrum's endpoints to keep the test fast.
			if kind == Vanilla || kind == DareFull {
				fcfg := ftl.DefaultConfig()
				m.FTL = &fcfg
			}
			env := NewEnv(m, kind)
			mix := NewMix(env)
			mix.AddL(4, 0)
			mix.AddT(2, 0)
			// Trace every request so the layer split can be checked on
			// the recovered spans too.
			o := env.EnableObs(1<<18, 0)
			for _, j := range mix.AllJobs() {
				j.Obs = o
			}
			mix.StartAll()
			env.Eng.At(sim.Time(60*sim.Millisecond), func() {
				for _, j := range mix.AllJobs() {
					j.Stop()
				}
			})
			env.Eng.RunUntil(sim.Time(5 * sim.Second))
			if p := env.Eng.Pending(); p > 100 {
				t.Fatalf("%d events still pending: the fault schedule hung the cell", p)
			}
			for _, j := range mix.AllJobs() {
				if j.Issued() == 0 {
					t.Errorf("job %s issued nothing", j.Tenant)
				}
				if j.Done.Ops != j.Issued() {
					t.Errorf("job %s: issued %d, ended %d (requests lost or duplicated under faults)",
						j.Tenant, j.Issued(), j.Done.Ops)
				}
			}
			rec := env.Recovery()
			if rec.Faults.StallLosses == 0 {
				t.Error("whole-run stall never swallowed a command")
			}
			if rec.Timeouts == 0 {
				t.Error("lost commands never expired")
			}
			if rec.TerminalFailures == 0 {
				t.Error("requests against permanently dark chips must fail terminally")
			}
			if m.FTL != nil && rec.Faults.ProgramFailures == 0 {
				t.Error("program-failure injection never fired on the FTL-backed cell")
			}
			checkLayersConserved(t, o.Tracer())
		})
	}
}

// checkLayersConserved asserts that the tracer kept every span and that
// each completed span's layers are non-negative and sum to its total, with
// at least one terminally failed span among them.
func checkLayersConserved(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans: raise the budget", tr.Dropped())
	}
	failed := 0
	for _, sp := range tr.Spans() {
		if sp.Complete == 0 {
			continue
		}
		if sp.Failed {
			failed++
		}
		var sum sim.Duration
		for l, d := range sp.Layers() {
			if d < 0 {
				t.Fatalf("span %d: layer %s = %v", sp.Seq, obs.Layer(l), d)
			}
			sum += d
		}
		if sum != sp.Total() {
			t.Fatalf("span %d: layers sum to %v, total is %v", sp.Seq, sum, sp.Total())
		}
	}
	if failed == 0 {
		t.Error("no traced span failed: the conservation check saw no recovered request")
	}
}

// TestExtFaultDeterminismAcrossParallelism is the acceptance bit-identity
// check: the full ext-fault grid — fault injection, expiry, aborts, resets,
// and requeues included — must not change between -j 1 and -j 8. Faults draw
// from a dedicated RNG stream keyed by (seed, schedule), so worker count can
// only change wall-clock time.
func TestExtFaultDeterminismAcrossParallelism(t *testing.T) {
	defer SetParallelism(Parallelism())

	SetParallelism(1)
	serial := RunExtFault(DefaultFaultSeed, tinyScale)
	SetParallelism(8)
	parallel := RunExtFault(DefaultFaultSeed, tinyScale)

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("ext-fault differs between -j 1 and -j 8:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
	if len(serial.Cells) == 0 {
		t.Fatal("ext-fault returned no cells; the comparison is vacuous")
	}
	// Make sure the comparison covered live fault machinery, not a healthy
	// run: the brownout window must have lost and expired commands.
	c, ok := serial.Cell(Vanilla, FaultBrownout)
	if !ok {
		t.Fatal("grid is missing the vanilla brownout cell")
	}
	if c.Recovery.Faults.StallLosses == 0 || c.Recovery.Timeouts == 0 {
		t.Fatalf("brownout cell saw no stall losses or timeouts: %+v", c.Recovery)
	}
}

// TestExtFaultCellShapes pins the qualitative claims of a single brownout
// cell at a moderate scale: goodput stays positive, losses inside the window
// surface as timeouts and requeues, and recovery drains the backlog.
func TestExtFaultCellShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	sc := Scale{Warmup: 20 * sim.Millisecond, Measure: 80 * sim.Millisecond}
	c := RunExtFaultCell(DareFull, FaultBrownout, DefaultFaultSeed, sc)
	if c.LGoodKIOPS <= 0 || c.TGoodMBps <= 0 {
		t.Fatalf("no goodput under a partial brownout: %+v", c)
	}
	if c.Recovery.Faults.StallLosses == 0 {
		t.Fatal("brownout never swallowed a command")
	}
	if c.Recovery.Timeouts == 0 || c.Recovery.CancelRequeues == 0 {
		t.Fatalf("lost commands must expire and requeue: %+v", c.Recovery)
	}
	lossy := RunExtFaultCell(DareFull, FaultLossy, DefaultFaultSeed, sc)
	if lossy.Recovery.Faults.LateCQEs == 0 {
		t.Fatalf("lossy profile never delayed a CQE: %+v", lossy.Recovery)
	}
}

// TestExtFaultResultLookupAndText covers the sweep container: Cell() finds
// exactly the cells that exist, and the rendering includes the table and
// narration.
func TestExtFaultResultLookupAndText(t *testing.T) {
	res := ExtFaultResult{Seed: 42, Cells: []ExtFaultCell{
		{Kind: Vanilla, Profile: FaultBrownout, LGoodKIOPS: 12.5},
		{Kind: DareFull, Profile: FaultWearout, TGoodMBps: 800},
	}}
	if c, ok := res.Cell(Vanilla, FaultBrownout); !ok || c.LGoodKIOPS != 12.5 {
		t.Fatalf("Cell lookup failed: %+v %v", c, ok)
	}
	if _, ok := res.Cell(BlkSwitch, FaultLossy); ok {
		t.Fatal("Cell found a missing combination")
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"fault injection", "timeouts", "resets", "vanilla", "wearout", "Recovery"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// FuzzFaultSchedule throws arbitrary (clamped-valid) schedules — stall
// windows, drop/late/read-error/program-fail probabilities, and expiry
// deadlines — at a live stack and asserts the two properties no schedule may
// break: the simulation terminates, and every issued request ends exactly
// once.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), uint16(0), uint32(0), uint32(0), uint8(0), uint32(800))
	f.Add(uint64(7), uint16(5), uint16(100), uint16(50), uint32(0), uint32(1<<31), uint8(255), uint32(1500))
	f.Add(uint64(42), uint16(998), uint16(998), uint16(998), uint32(1000), uint32(5000), uint8(16), uint32(300))
	f.Fuzz(func(t *testing.T, seed uint64, dropMilli, lateMilli, readMilli uint16,
		stallStartUs, stallLenUs uint32, numChips uint8, timeoutUs uint32) {
		prob := func(v uint16) float64 { return float64(v%999) / 1000 }
		s := fault.Schedule{
			Seed:        seed,
			DropCQEProb: prob(dropMilli),
			LateCQEProb: prob(lateMilli),
			ReadErrorRamp: fault.Ramp{
				Window: fault.Window{Start: 0, End: 20 * sim.Millisecond},
				From:   prob(readMilli), To: prob(readMilli),
			},
		}
		if s.LateCQEProb > 0 {
			s.LateCQEDelay = 150 * sim.Microsecond
		}
		if stallLenUs > 0 && numChips > 0 {
			start := sim.Duration(stallStartUs%20_000) * sim.Microsecond
			s.ChipStalls = []fault.ChipStall{{
				Window:    fault.Window{Start: start, End: start + sim.Duration(stallLenUs)*sim.Microsecond},
				FirstChip: 0, NumChips: int(numChips),
			}}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("clamped schedule still invalid: %v", err)
		}
		m := SVM(2)
		m.Fault = &s
		// Expiry must exist whenever commands can be lost; keep it within
		// [0.3ms, 5ms] so even abort/reset storms stay cheap per iteration.
		m.NVMe.CmdTimeout = sim.Duration(300+timeoutUs%4700) * sim.Microsecond
		env := NewEnv(m, DareFull)
		mix := NewMix(env)
		mix.AddL(1, 0)
		mix.AddT(1, 0)
		mix.StartAll()
		env.Eng.At(sim.Time(5*sim.Millisecond), func() {
			for _, j := range mix.AllJobs() {
				j.Stop()
			}
		})
		env.Eng.RunUntil(sim.Time(2 * sim.Second))
		if p := env.Eng.Pending(); p > 100 {
			t.Fatalf("%d events still pending: schedule %+v hung the cell", p, s)
		}
		for _, j := range mix.AllJobs() {
			if j.Done.Ops != j.Issued() {
				t.Fatalf("job %s: issued %d, ended %d under schedule %+v",
					j.Tenant, j.Issued(), j.Done.Ops, s)
			}
		}
	})
}
