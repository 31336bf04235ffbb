package harness

import (
	"reflect"
	"testing"

	"daredevil/internal/block"
	"daredevil/internal/obs"
	"daredevil/internal/sim"
	"daredevil/internal/stats"
	"daredevil/internal/workload"
)

// TestEveryRequestCompletesExactlyOnce drives every stack with a mixed
// workload and verifies conservation: every issued request completes
// exactly once, with monotonic timestamps.
func TestEveryRequestCompletesExactlyOnce(t *testing.T) {
	for _, kind := range AllKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			env := NewEnv(SVM(4), kind)
			var jobs []*workload.Job
			mix := NewMix(env)
			mix.AddL(4, 0)
			mix.AddT(8, 0)
			jobs = mix.AllJobs()
			// Wrap completion callbacks post-Start is racy; instead verify
			// via the per-job counters plus explicit probes below.
			for _, j := range jobs {
				j.Start(env.Eng, env.Pool, env.Stack)
			}
			// Stop issuing at 100ms, drain until 2s.
			env.Eng.At(sim.Time(100*sim.Millisecond), func() {
				for _, j := range jobs {
					j.Stop()
				}
			})
			env.Eng.RunUntil(sim.Time(2 * sim.Second))
			for _, j := range jobs {
				if j.Issued() == 0 {
					t.Errorf("job %s issued nothing", j.Tenant)
				}
				if j.Done.Ops != j.Issued() {
					t.Errorf("job %s: issued %d, completed %d (lost or duplicated requests)",
						j.Tenant, j.Issued(), j.Done.Ops)
				}
			}
		})
	}
}

// TestTimestampMonotonicity verifies issue <= submit <= fetch <= cqe <=
// complete for requests on every stack.
func TestTimestampMonotonicity(t *testing.T) {
	for _, kind := range AllKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			env := NewEnv(SVM(4), kind)
			checked := 0
			for i := 0; i < 20; i++ {
				ten := &block.Tenant{ID: i + 1, Core: i % 4,
					Class: block.Class(i % 2)}
				env.Stack.Register(ten)
				size := int64(4096)
				if ten.Class == block.ClassBE {
					size = 131072
				}
				// An untraced span: the layers stamp submit and fetch on it.
				rq := &block.Request{ID: uint64(i), Tenant: ten, Size: size,
					Op: block.OpKind(i % 2), IssueTime: env.Eng.Now(), NSQ: -1, Span: &obs.Span{}}
				rq.OnComplete = func(r *block.Request) {
					checked++
					sp := r.Span
					if sp.Submit < r.IssueTime || sp.Fetch < sp.Submit ||
						r.CQEPostTime < sp.Fetch || r.CompleteTime < r.CQEPostTime {
						t.Errorf("timestamps out of order: issue=%v submit=%v fetch=%v cqe=%v done=%v",
							r.IssueTime, sp.Submit, sp.Fetch, r.CQEPostTime, r.CompleteTime)
					}
				}
				env.Stack.Submit(rq)
			}
			env.Eng.RunUntil(sim.Time(5 * sim.Second))
			if checked != 20 {
				t.Fatalf("only %d/20 requests completed", checked)
			}
		})
	}
}

// TestDeterminismAcrossRuns verifies two identical simulations produce
// bit-identical metrics for every stack.
func TestDeterminismAcrossRuns(t *testing.T) {
	for _, kind := range AllKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run := func() CellResult {
				return RunMixOnce(SVM(4), kind, 4, 8, Scale{
					Warmup: 20 * sim.Millisecond, Measure: 60 * sim.Millisecond,
				})
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestNoLostRequestsUnderQueuePressure floods tiny queues so the
// requeue-on-full path is exercised, then checks conservation.
func TestNoLostRequestsUnderQueuePressure(t *testing.T) {
	m := SVM(4)
	m.NVMe.QueueDepth = 8 // tiny queues force constant requeueing
	for _, kind := range []StackKind{Vanilla, DareFull} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			env := NewEnv(m, kind)
			mix := NewMix(env)
			mix.AddT(8, 0)
			mix.StartAll()
			env.Eng.At(sim.Time(50*sim.Millisecond), func() {
				for _, j := range mix.TJobs {
					j.Stop()
				}
			})
			env.Eng.RunUntil(sim.Time(5 * sim.Second))
			for _, j := range mix.TJobs {
				if j.Done.Ops != j.Issued() {
					t.Errorf("job %s: issued %d completed %d under queue pressure",
						j.Tenant, j.Issued(), j.Done.Ops)
				}
			}
		})
	}
}

// TestPriorityInvariantDaredevil checks the NQ-heterogeneity invariant:
// after a mixed run on Daredevil, no low-priority request ever landed on a
// high-group NSQ and vice versa (outliers excepted — they are explicitly
// high-priority).
func TestPriorityInvariantDaredevil(t *testing.T) {
	env := NewEnv(SVM(4), DareFull)
	half := env.Dev.NumNCQ() / 2
	var violations int
	for i := 0; i < 40; i++ {
		ten := &block.Tenant{ID: i + 1, Core: i % 4, Class: block.Class(i % 2)}
		env.Stack.Register(ten)
		size := int64(4096)
		if ten.Class == block.ClassBE {
			size = 131072
		}
		var flags block.Flags
		if i%5 == 0 && ten.Class == block.ClassBE {
			flags = block.FlagSync // outlier
		}
		rq := &block.Request{ID: uint64(i), Tenant: ten, Size: size,
			Flags: flags, IssueTime: env.Eng.Now(), NSQ: -1}
		rq.OnComplete = func(r *block.Request) {
			highGroup := env.Dev.NSQ(r.NSQ).NCQ().ID < half
			wantHigh := r.Prio == block.PrioHigh
			if highGroup != wantHigh {
				violations++
			}
		}
		env.Stack.Submit(rq)
	}
	env.Eng.RunUntil(sim.Time(5 * sim.Second))
	if violations != 0 {
		t.Fatalf("%d requests landed in the wrong NQGroup", violations)
	}
}

// TestThroughputConservation verifies completed bytes match the flash
// media's written pages (writes only, no splitting surprises).
func TestThroughputConservation(t *testing.T) {
	env := NewEnv(SVM(4), DareFull)
	mix := NewMix(env)
	mix.AddT(4, 0)
	mix.StartAll()
	env.Eng.At(sim.Time(50*sim.Millisecond), func() {
		for _, j := range mix.TJobs {
			j.Stop()
		}
	})
	env.Eng.RunUntil(sim.Time(5 * sim.Second))
	var completedBytes int64
	for _, j := range mix.TJobs {
		completedBytes += j.Done.Bytes
	}
	writtenBytes := int64(env.Dev.Media().Stats().PagesWritten) * env.Dev.Config().Flash.PageSize
	if writtenBytes < completedBytes {
		t.Fatalf("media wrote %d bytes but tenants completed %d", writtenBytes, completedBytes)
	}
}

// TestShapesHoldAcrossSeeds re-runs the headline comparison with shifted
// workload seeds: the qualitative result must not depend on the particular
// random streams.
func TestShapesHoldAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep is slow")
	}
	sc := Scale{Warmup: 25 * sim.Millisecond, Measure: 100 * sim.Millisecond}
	for _, shift := range []uint64{0, 1_000_003, 2_000_033} {
		run := func(kind StackKind) CellResult {
			c := NewCell(SVM(4), kind)
			c.Mix.SeedShift = shift
			c.Mix.AddL(4, 0)
			c.Mix.AddT(16, 0)
			return c.Run(sc.Warmup, sc.Measure)
		}
		dd, van := run(DareFull), run(Vanilla)
		if dd.LTenantLatency.Mean*4 >= van.LTenantLatency.Mean {
			t.Errorf("seed shift %d: daredevil (%v) not well below vanilla (%v)",
				shift, dd.LTenantLatency.Mean, van.LTenantLatency.Mean)
		}
	}
}

// TestLTenantFairness verifies Daredevil serves same-class tenants evenly.
func TestLTenantFairness(t *testing.T) {
	c := NewCell(SVM(4), DareFull)
	c.Mix.AddL(4, 0)
	c.Mix.AddT(16, 0)
	c.Run(25*sim.Millisecond, 100*sim.Millisecond)
	var perL []float64
	for _, j := range c.Mix.LJobs {
		perL = append(perL, float64(j.Done.Ops))
	}
	if f := stats.JainIndex(perL); f < 0.9 {
		t.Fatalf("L-tenant fairness %v, want >= 0.9 (Jain)", f)
	}
}

// TestAppsCompleteOnEveryStack drives the application models on every
// stack, checking they make progress and record latencies everywhere.
func TestAppsCompleteOnEveryStack(t *testing.T) {
	if testing.Short() {
		t.Skip("app matrix is slow")
	}
	for _, kind := range AllKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			env := NewEnv(SVM(4), kind)
			kv := workload.NewKV(100, workload.DefaultKVConfig("kv", 0))
			kv.Start(env.Eng, env.Pool, env.Stack)
			y := workload.NewYCSB(workload.YCSBA, kv, 5)
			y.Start(env.Eng)
			mail := workload.NewMail(200, workload.DefaultMailConfig("mail", 1))
			mail.Start(env.Eng, env.Pool, env.Stack)
			ck := workload.NewCheckpointer(300, func() workload.CheckpointConfig {
				c := workload.DefaultCheckpointConfig("ck", 2)
				c.Size = 4 << 20
				c.Every = 20 * sim.Millisecond
				return c
			}())
			ck.Start(env.Eng, env.Pool, env.Stack)
			env.Eng.RunUntil(sim.Time(150 * sim.Millisecond))
			if y.Ops == 0 {
				t.Error("YCSB made no progress")
			}
			if mail.Ops == 0 {
				t.Error("Mailserver made no progress")
			}
			if ck.Completed == 0 {
				t.Error("Checkpointer made no progress")
			}
		})
	}
}

// TestConservationUnderMediaErrors injects media errors and verifies the
// closed loops still conserve requests (errors complete, with Err set,
// exactly once) on vanilla and Daredevil.
func TestConservationUnderMediaErrors(t *testing.T) {
	m := SVM(4)
	m.NVMe.MediaErrorRate = 0.05
	m.NVMe.MediaRetries = 2
	for _, kind := range []StackKind{Vanilla, DareFull} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			env := NewEnv(m, kind)
			mix := NewMix(env)
			mix.AddL(2, 0)
			mix.AddT(4, 0)
			mix.StartAll()
			env.Eng.At(sim.Time(60*sim.Millisecond), func() {
				for _, j := range mix.AllJobs() {
					j.Stop()
				}
			})
			env.Eng.RunUntil(sim.Time(5 * sim.Second))
			for _, j := range mix.AllJobs() {
				if j.Done.Ops != j.Issued() {
					t.Errorf("job %s: issued %d completed %d under media errors",
						j.Tenant, j.Issued(), j.Done.Ops)
				}
			}
			if env.Dev.MediaErrors == 0 {
				t.Error("injection never fired")
			}
		})
	}
}

// TestLongRunStability runs a saturated machine for 3 virtual seconds and
// checks the simulation neither stalls nor leaks events.
func TestLongRunStability(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	c := NewCell(SVM(4), DareFull)
	c.Mix.AddL(4, 0)
	c.Mix.AddT(32, 0)
	env := c.Env
	r := c.Run(0, 3*sim.Second)
	if env.Eng.Executed < 100_000 {
		t.Fatalf("only %d events in 3s of saturated simulation", env.Eng.Executed)
	}
	if r.LTenantLatency.Count == 0 || r.TThroughputMBps < 500 {
		t.Fatalf("degenerate long-run result: %+v", r)
	}
	// Stop everything; the engine must drain to (near) empty — pending
	// events bounded by in-flight work, not growing with runtime.
	for _, j := range c.Mix.AllJobs() {
		j.Stop()
	}
	env.Eng.RunUntil(sim.Time(10 * sim.Second))
	if env.Eng.Pending() > 100 {
		t.Fatalf("%d events still pending after drain (leak?)", env.Eng.Pending())
	}
}
