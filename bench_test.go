package daredevil

// Ablation benches for the design choices DESIGN.md calls out (run with
// `go test -bench=Ablation -benchmem`). Each iteration reruns a reduced
// cell with one knob changed and reports the L-tenant average latency, so
// the bench output doubles as a compact ablation table. Per-experiment
// wall time is measured by the benchmark in bench/ (paper-grid's
// harness.exp_ms.<experiment>), not here.

import (
	"testing"

	"daredevil/internal/core"
	"daredevil/internal/harness"
	"daredevil/internal/sim"
	"daredevil/internal/stackbase"
	"daredevil/internal/workload"
)

// benchScale keeps benchmark iterations cheap while preserving queueing
// behavior.
var benchScale = harness.Scale{Warmup: 20 * sim.Millisecond, Measure: 80 * sim.Millisecond}

// BenchmarkAblationAlpha sweeps the exponential-smoothing decay ratio.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0.6, 0.8, 0.95} {
		b.Run(alphaName(alpha), func(b *testing.B) {
			var avg sim.Duration
			for i := 0; i < b.N; i++ {
				avg = runDareVariant(func(cfg *core.Config) { cfg.Alpha = alpha })
			}
			b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
		})
	}
}

func alphaName(a float64) string {
	switch a {
	case 0.6:
		return "alpha=0.6"
	case 0.8:
		return "alpha=0.8"
	default:
		return "alpha=0.95"
	}
}

// BenchmarkAblationMRU compares the MRU update batching against per-query
// heap refreshes (MRU=1 forces a resort on every query).
func BenchmarkAblationMRU(b *testing.B) {
	for _, mru := range []int{1, 64, 1024} {
		mru := mru
		b.Run(mruName(mru), func(b *testing.B) {
			var avg sim.Duration
			for i := 0; i < b.N; i++ {
				avg = runDareVariant(func(cfg *core.Config) { cfg.MRU = mru })
			}
			b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
		})
	}
}

func mruName(m int) string {
	switch m {
	case 1:
		return "mru=1"
	case 64:
		return "mru=64"
	default:
		return "mru=depth"
	}
}

// runDareVariant measures L-tenant average latency under 4L+16T with a
// tweaked Daredevil configuration.
func runDareVariant(tweak func(*core.Config)) sim.Duration {
	c := harness.NewCell(harness.SVM(4), harness.Vanilla) // device/pool only
	env := c.Env
	cfg := core.DefaultConfig()
	tweak(&cfg)
	env.Stack = core.New(stackbase.Env{Eng: env.Eng, Pool: env.Pool, Dev: env.Dev}, cfg)
	c.Mix.AddL(4, 0)
	c.Mix.AddT(16, 0)
	// Outlier traffic exercises the request-specific scheduling context,
	// where alpha and the MRU policy actually matter.
	for _, j := range c.Mix.TJobs {
		j.Cfg.OutlierEvery = 16
	}
	workload.StartIoniceUpdater(env.Eng, env.Stack, c.Mix.Tenants(),
		sim.Millisecond, sim.Time(benchScale.Warmup+benchScale.Measure))
	return c.Run(benchScale.Warmup, benchScale.Measure).LTenantLatency.Mean
}

// BenchmarkAblationStaticSkew contrasts static partitioning against
// Daredevil's flexible routing under skewed per-core load: every tenant
// pinned to core 0, so static bindings funnel all I/O into one NQ pair.
func BenchmarkAblationStaticSkew(b *testing.B) {
	run := func(kind harness.StackKind) sim.Duration {
		c := harness.NewCell(harness.SVM(4), kind)
		c.Mix.AddL(2, 0)
		c.Mix.AddT(8, 0)
		for _, j := range c.Mix.AllJobs() {
			j.Tenant.Core = 0
			j.Cfg.Core = 0
		}
		return c.Run(benchScale.Warmup, benchScale.Measure).LTenantLatency.Mean
	}
	for _, kind := range []harness.StackKind{harness.StaticPart, harness.DareFull} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			var avg sim.Duration
			for i := 0; i < b.N; i++ {
				avg = run(kind)
			}
			b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
		})
	}
}

// BenchmarkAblationNSQRatio contrasts 1:1 NSQ:NCQ binding (SV-M) against a
// >5:1 ratio (WS-M shape) at identical core counts.
func BenchmarkAblationNSQRatio(b *testing.B) {
	run := func(m harness.Machine) sim.Duration {
		return harness.RunMixOnce(m, harness.DareFull, 4, 16, benchScale).LTenantLatency.Mean
	}
	oneToOne := harness.SVM(8)
	wide := harness.WSM()
	b.Run("nsq:ncq=1:1", func(b *testing.B) {
		var avg sim.Duration
		for i := 0; i < b.N; i++ {
			avg = run(oneToOne)
		}
		b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
	})
	b.Run("nsq:ncq=5:1", func(b *testing.B) {
		var avg sim.Duration
		for i := 0; i < b.N; i++ {
			avg = run(wide)
		}
		b.ReportMetric(avg.Milliseconds(), "l-avg-ms")
	})
}
