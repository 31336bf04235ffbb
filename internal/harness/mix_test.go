package harness

import (
	"testing"

	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

var smokeScale = Scale{Warmup: 30 * sim.Millisecond, Measure: 120 * sim.Millisecond}

func TestMixRunsOnEveryStack(t *testing.T) {
	for _, kind := range AllKinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res := RunMixOnce(SVM(4), kind, 4, 4, smokeScale)
			if res.LTenantLatency.Count == 0 {
				t.Fatalf("%s: no L completions", kind)
			}
			if res.TTenantLatency.Count == 0 {
				t.Fatalf("%s: no T completions", kind)
			}
			if res.LTenantLatency.Mean <= 0 || res.TThroughputMBps <= 0 {
				t.Fatalf("%s: degenerate result %+v", kind, res)
			}
			t.Logf("%s: L avg=%v p99.9=%v kIOPS=%.1f | T %.0f MB/s | cpu=%.2f",
				kind, res.LTenantLatency.Mean, res.LTenantLatency.P999, res.LTenantKIOPS, res.TThroughputMBps, res.CPUUtilization)
		})
	}
}

func TestDaredevilBeatsVanillaUnderPressure(t *testing.T) {
	van := RunMixOnce(SVM(4), Vanilla, 4, 16, smokeScale)
	dd := RunMixOnce(SVM(4), DareFull, 4, 16, smokeScale)
	t.Logf("vanilla: L avg=%v p99.9=%v | T %.0f MB/s", van.LTenantLatency.Mean, van.LTenantLatency.P999, van.TThroughputMBps)
	t.Logf("daredevil: L avg=%v p99.9=%v | T %.0f MB/s", dd.LTenantLatency.Mean, dd.LTenantLatency.P999, dd.TThroughputMBps)
	if dd.LTenantLatency.Mean*2 >= van.LTenantLatency.Mean {
		t.Fatalf("daredevil L avg (%v) should be well below vanilla (%v) under 16 T-tenants",
			dd.LTenantLatency.Mean, van.LTenantLatency.Mean)
	}
	if dd.TThroughputMBps < van.TThroughputMBps*0.5 {
		t.Fatalf("daredevil T throughput (%.0f) collapsed vs vanilla (%.0f)", dd.TThroughputMBps, van.TThroughputMBps)
	}
}

func TestInterferenceGrowsWithTPressure(t *testing.T) {
	low := RunMixOnce(SVM(4), Vanilla, 4, 0, smokeScale)
	high := RunMixOnce(SVM(4), Vanilla, 4, 16, smokeScale)
	t.Logf("vanilla no-T: L avg=%v; 16T: L avg=%v", low.LTenantLatency.Mean, high.LTenantLatency.Mean)
	if high.LTenantLatency.Mean < low.LTenantLatency.Mean*3 {
		t.Fatalf("the multi-tenancy issue is absent: %v -> %v", low.LTenantLatency.Mean, high.LTenantLatency.Mean)
	}
}

func TestPressureSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	counts := []int{0, 4, 16, 32}
	results := map[StackKind][]CellResult{}
	for _, kind := range ComparisonKinds {
		for _, n := range counts {
			results[kind] = append(results[kind], RunMixOnce(SVM(4), kind, 4, n, smokeScale))
		}
	}
	for _, kind := range ComparisonKinds {
		for i, n := range counts {
			r := results[kind][i]
			t.Logf("%-11s T=%2d: L avg=%10v p99.9=%10v kIOPS=%5.2f | T %6.0f MB/s",
				kind, n, r.LTenantLatency.Mean, r.LTenantLatency.P999, r.LTenantKIOPS, r.TThroughputMBps)
		}
	}
	// Shape assertions from Fig. 6: at 32 T-tenants Daredevil's average L
	// latency beats vanilla and blk-switch by a wide margin while keeping
	// comparable T throughput.
	dd, van, bs := results[DareFull][3], results[Vanilla][3], results[BlkSwitch][3]
	if dd.LTenantLatency.Mean*5 >= van.LTenantLatency.Mean {
		t.Errorf("daredevil avg (%v) should be >=5x below vanilla (%v) at 32T", dd.LTenantLatency.Mean, van.LTenantLatency.Mean)
	}
	if dd.LTenantLatency.Mean*2 >= bs.LTenantLatency.Mean {
		t.Errorf("daredevil avg (%v) should be well below blk-switch (%v) at 32T", dd.LTenantLatency.Mean, bs.LTenantLatency.Mean)
	}
	if dd.TThroughputMBps < van.TThroughputMBps*0.7 {
		t.Errorf("daredevil T throughput (%.0f) not comparable to vanilla (%.0f)", dd.TThroughputMBps, van.TThroughputMBps)
	}
}

// TestAddTLSeedShift checks that AddTL honours SeedShift as AddL and AddT
// do: shift 0 leaves fig13's TL-tenant seeds as they were (so its pinned
// bytes hold), and shift 1 moves every one of them.
func TestAddTLSeedShift(t *testing.T) {
	seeds := func(shift uint64) ([]uint64, int) {
		mix := NewCell(fig13Machine(), DareFull).Mix
		mix.SeedShift = shift
		mix.AddTL(16, 0)
		var s []uint64
		for _, j := range mix.TJobs {
			s = append(s, j.Cfg.Seed)
		}
		return s, mix.Env.Pool.N()
	}
	base, cores := seeds(0)
	shifted, _ := seeds(1)
	for i := range base {
		want := workload.DefaultTTenant("fio-TL", i%cores).Seed
		if base[i] != want {
			t.Errorf("shift 0: TL-tenant %d seed %d, want fig13's %d", i, base[i], want)
		}
		if shifted[i] != want+1 {
			t.Errorf("shift 1: TL-tenant %d seed %d, want %d", i, shifted[i], want+1)
		}
	}
}
