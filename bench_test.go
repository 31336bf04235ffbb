package daredevil

// Benchmark harness: one testing.B benchmark per paper table/figure (run
// with `go test -bench=. -benchmem`), plus ablation benches for the design
// choices DESIGN.md calls out. Each iteration regenerates the experiment at
// a reduced scale; per-op time is therefore "virtual experiment per real
// second". Reported custom metrics carry the headline numbers so the bench
// output doubles as a compact results table.

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

func BenchmarkTable1Factors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.RunTable1()
		if len(res.Rows) != 4 {
			b.Fatal("table1 incomplete")
		}
	}
}

func BenchmarkFig2Motivation(b *testing.B) {
	var last harness.Fig2Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig2(benchScale)
	}
	// Report the 16-T-tenant row: at bench scale the 32-T cell can be fully
	// blocked (zero L completions), which is the phenomenon itself but a
	// useless metric.
	r := last.Rows[len(last.Rows)-2]
	b.ReportMetric(r.WithAvg.Milliseconds(), "with-avg-ms")
	b.ReportMetric(r.WithoutAvg.Milliseconds(), "without-avg-ms")
}

func BenchmarkFig6SVMPressure(b *testing.B) {
	var last harness.Fig6Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig6(benchScale)
	}
	reportPressure(b, last)
}

func BenchmarkFig7WSMPressure(b *testing.B) {
	var last harness.Fig6Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig7(benchScale)
	}
	reportPressure(b, last)
}

func reportPressure(b *testing.B, r harness.Fig6Result) {
	b.Helper()
	if dd, ok := r.Cell(harness.DareFull, 16); ok {
		b.ReportMetric(dd.Avg.Milliseconds(), "dd-avg-ms@16T")
	}
	// The 16-T cell is used because vanilla's 32-T cell can be fully
	// blocked (zero completions) at bench scale.
	if van, ok := r.Cell(harness.Vanilla, 16); ok {
		b.ReportMetric(van.Avg.Milliseconds(), "vanilla-avg-ms@16T")
	}
}

func BenchmarkFig8TimeSeries(b *testing.B) {
	var last harness.Fig8Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig8(benchScale)
	}
	b.ReportMetric(last.Fluctuation(harness.BlkSwitch), "blkswitch-cv")
	b.ReportMetric(last.Fluctuation(harness.DareFull), "daredevil-cv")
}

func BenchmarkFig9CoreSensitivity(b *testing.B) {
	var last harness.Fig9Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig9(benchScale)
	}
	if c, ok := last.Cell(harness.DareFull, 8, 32); ok {
		b.ReportMetric(c.Tail.Milliseconds(), "dd-tail-ms@8c32T")
	}
}

func BenchmarkFig10MultiNamespace(b *testing.B) {
	var last harness.Fig10Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig10(benchScale)
	}
	if c, ok := last.Cell(harness.DareFull, 12); ok {
		b.ReportMetric(c.Avg.Milliseconds(), "dd-avg-ms@12ns")
	}
}

func BenchmarkFig11Ablation(b *testing.B) {
	var last harness.Fig11Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig11(benchScale)
	}
	if c, ok := last.SingleCell(harness.DareBase, 32); ok {
		b.ReportMetric(c.Tail.Milliseconds(), "base-tail-ms@32T")
	}
	if c, ok := last.SingleCell(harness.DareFull, 32); ok {
		b.ReportMetric(c.Tail.Milliseconds(), "full-tail-ms@32T")
	}
}

func BenchmarkFig12Applications(b *testing.B) {
	var last harness.Fig12Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig12(benchScale)
	}
	if c, ok := last.Cell("YCSB-A", harness.DareFull); ok {
		b.ReportMetric(c.Metrics[workload.OpUpdate].Milliseconds(), "dd-ycsbA-update-p999-ms")
	}
}

func BenchmarkFig13CrossCoreOverheads(b *testing.B) {
	var last harness.Fig13Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig13(benchScale)
	}
	if c, ok := last.Cell(harness.DareFull, "L", 12, 12); ok {
		b.ReportMetric(c.CompDelay.Microseconds(), "dd-comp-delay-us")
	}
}

func BenchmarkFig14UpdateStorm(b *testing.B) {
	var last harness.Fig14Result
	for i := 0; i < b.N; i++ {
		last = harness.RunFig14(benchScale)
	}
	r := last.Rows[len(last.Rows)-1]
	b.ReportMetric(r.LIOPSNorm, "l-iops-norm@10us")
	b.ReportMetric(r.CPUUtil, "cpu-util@10us")
}

// --- Ablation benches (DESIGN.md "design choices") ---

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
	env := harness.NewEnv(harness.SVM(4), harness.Vanilla) // device/pool only
	cfg := core.DefaultConfig()
	tweak(&cfg)
	stack := core.New(stackbase.Env{Eng: env.Eng, Pool: env.Pool, Dev: env.Dev}, cfg)
	env.Stack = stack
	mix := harness.NewMix(env)
	mix.AddL(4, 0)
	mix.AddT(16, 0)
	// Outlier traffic exercises the request-specific scheduling context,
	// where alpha and the MRU policy actually matter.
	for _, j := range mix.TJobs {
		j.Cfg.OutlierEvery = 16
	}
	mix.StartAll()
	workload.StartIoniceUpdater(env.Eng, env.Stack, mix.Tenants(),
		sim.Millisecond, sim.Time(benchScale.Warmup+benchScale.Measure))
	env.Eng.RunUntil(sim.Time(benchScale.Warmup))
	mix.ResetStats()
	env.Eng.RunUntil(sim.Time(benchScale.Warmup + benchScale.Measure))
	return mix.Collect(benchScale.Measure).L.Mean
}

// BenchmarkAblationStaticSkew contrasts static partitioning against
// Daredevil's flexible routing under skewed per-core load: every tenant
// pinned to core 0, so static bindings funnel all I/O into one NQ pair.
func BenchmarkAblationStaticSkew(b *testing.B) {
	run := func(kind harness.StackKind) sim.Duration {
		env := harness.NewEnv(harness.SVM(4), kind)
		mix := harness.NewMix(env)
		mix.AddL(2, 0)
		mix.AddT(8, 0)
		for _, j := range mix.AllJobs() {
			j.Tenant.Core = 0
			j.Cfg.Core = 0
		}
		mix.StartAll()
		env.Eng.RunUntil(sim.Time(benchScale.Warmup))
		mix.ResetStats()
		env.Eng.RunUntil(sim.Time(benchScale.Warmup + benchScale.Measure))
		return mix.Collect(benchScale.Measure).L.Mean
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
		r := harness.RunMixOnce(m, harness.DareFull, 4, 16, benchScale)
		return r.L.Mean
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

// --- Extension benches ---

// BenchmarkExtensionSchedulers regenerates the I/O-scheduler comparison.
func BenchmarkExtensionSchedulers(b *testing.B) {
	var last harness.ExtSchedResult
	for i := 0; i < b.N; i++ {
		last = harness.RunExtSchedulers(benchScale)
	}
	if c, ok := last.Cell(harness.Kyber, 32); ok {
		b.ReportMetric(c.Avg.Milliseconds(), "kyber-avg-ms@32T")
	}
}

// BenchmarkExtensionWRR regenerates the arbitration ablation.
func BenchmarkExtensionWRR(b *testing.B) {
	var last harness.ExtWRRResult
	for i := 0; i < b.N; i++ {
		last = harness.RunExtWRR(benchScale)
	}
	for _, row := range last.Rows {
		if row.Arbitration == "weighted-rr" && row.TCount == 32 {
			b.ReportMetric(row.Avg.Milliseconds(), "wrr-avg-ms@32T")
		}
	}
}

// BenchmarkExtensionPolling regenerates the completion-mode comparison.
func BenchmarkExtensionPolling(b *testing.B) {
	var last harness.ExtPollResult
	for i := 0; i < b.N; i++ {
		last = harness.RunExtPolling(benchScale)
	}
	if len(last.Rows) == 2 {
		b.ReportMetric(last.Rows[1].Avg.Microseconds(), "polled-avg-us")
	}
}

// BenchmarkExtensionVirtio regenerates the §8.1 VM comparison.
func BenchmarkExtensionVirtio(b *testing.B) {
	var last harness.ExtVirtioResult
	for i := 0; i < b.N; i++ {
		last = harness.RunExtVirtio(benchScale)
	}
	if row, ok := last.Row("guest-decoupled", harness.DareFull); ok {
		b.ReportMetric(row.Avg.Milliseconds(), "decoupled-guest-avg-ms")
	}
}
