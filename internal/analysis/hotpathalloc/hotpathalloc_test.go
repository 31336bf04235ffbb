package hotpathalloc_test

import (
	"testing"

	"daredevil/internal/analysis/analysistest"
	"daredevil/internal/analysis/config"
	"daredevil/internal/analysis/hotpathalloc"
)

// TestHot exercises the directive-rooted transitive closure: append-in-loop,
// capturing closures, and interface boxing are flagged in the marked root
// and its callee, identical shapes in unreachable cold code stay silent,
// panic arguments are exempt, and one allocation is suppressed by an allow
// directive.
func TestHot(t *testing.T) {
	cfg := config.Default()
	analysistest.Run(t, cfg, "testdata/hot",
		"daredevil/internal/analysis/hotpathalloc/testdata/hot",
		hotpathalloc.New(cfg))
}

// TestWheel pins the analyzer on the shapes the timing-wheel and SoA-sweep
// roots rely on: arena carving and in-place slot truncation pass, while
// arena growth by append-in-loop, per-event boxing during a flush, and a
// per-batch capturing closure in the sweep are flagged. The two sanctioned
// amortized appends (heap backing, spare list) ride on allow directives.
func TestWheel(t *testing.T) {
	cfg := config.Default()
	analysistest.Run(t, cfg, "testdata/wheel",
		"daredevil/internal/analysis/hotpathalloc/testdata/wheel",
		hotpathalloc.New(cfg))
}

// TestArgs pins the continuation protocol on the fixture: pre-bound func
// fields, package functions, non-capturing literals, and method
// expressions bind cleanly with pointer-shaped or nil args, while
// capturing closures, method values, and boxed scalars diagnose at both
// the sim.Engine entry points and cpus.Work literals (keyed and
// positional), in cold code too, with the allow directive absorbing its
// case. In a hot function a fault both rules match diagnoses once.
func TestArgs(t *testing.T) {
	cfg := config.Default()
	fixture := "daredevil/internal/analysis/hotpathalloc/testdata/args"
	cfg.SimPackages = append(cfg.SimPackages, fixture)
	analysistest.Run(t, cfg, "testdata/args", fixture, hotpathalloc.New(cfg))
}
