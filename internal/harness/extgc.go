package harness

import (
	"fmt"
	"io"

	"daredevil/internal/ftl"
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// This file holds the ext-gc experiment: the four stacks on an aged device
// with the internal/ftl translation layer active, across over-provisioning
// levels and with/without TRIM. It probes §8.1's claim from the device
// side: GC relocation and erases share the die FIFOs with foreground I/O,
// so even a stack that isolates L-tenants perfectly in the queues cannot
// isolate them from the device's own writes — but the stack ordering must
// survive.

// ExtGCOPs are the over-provisioning levels swept (percent): 7% is a
// consumer drive with static spare, 28% an enterprise one.
var ExtGCOPs = []float64{7, 15, 28}

// ExtGCStacks are the stacks compared on the aged device.
var ExtGCStacks = []StackKind{Vanilla, BlkSwitch, StaticPart, DareFull}

// ExtGCCell is one (stack, OP, trim) measurement on the aged device.
type ExtGCCell struct {
	Kind  StackKind
	OPPct float64
	Trim  bool

	// WA is flash-pages-written / host-pages-written over the window.
	WA float64
	// GCRuns counts victim blocks collected; GCPauseP99 is the p99
	// per-victim collection time (first relocation to erase completion).
	GCRuns     uint64
	GCPauseP99 sim.Duration
	// ForegroundGCs counts host writes that stalled for an inline
	// collection (the write cliff).
	ForegroundGCs uint64
	// TrimmedPages counts pages invalidated by Deallocate.
	TrimmedPages uint64

	LTail sim.Duration
	LAvg  sim.Duration
	TMBps float64
}

// ExtGCResult is the full sweep.
type ExtGCResult struct {
	Cells []ExtGCCell
}

// RunExtGCCell runs one aged-device configuration: 4 L-tenants against 4
// overwrite-heavy T-tenants (random writes are the canonical GC workload —
// sequential overwrites age into perfectly invalid blocks and hide WA). The
// T depth is lowered to 4: each 128KB write fans across ~32 dies, so the
// closed loop self-throttles near the aged device's write capacity — making
// T MB/s a direct read of how much bandwidth GC leaves — instead of piling
// a multi-second backlog into the die FIFOs the way the paper-default 8x32
// depth would once write amplification cuts effective bandwidth
// several-fold. With trim, every 8th T-request is a Deallocate sweeping the
// span.
func RunExtGCCell(kind StackKind, opPct float64, trim bool, sc Scale) ExtGCCell {
	m := SVM(4)
	fcfg := ftl.DefaultConfig()
	fcfg.OPPct = opPct
	m.FTL = &fcfg

	c := NewCell(m, kind)
	c.Mix.AddL(4, 0)
	for i := 0; i < 4; i++ {
		cfg := workload.DefaultTTenant("fio-T", i%c.Env.Pool.N())
		cfg.Pattern = workload.Random
		cfg.ReadPct = 0
		cfg.IODepth = 4
		if trim {
			cfg.TrimEvery = 8
		}
		c.Mix.addJob(100+i, cfg)
	}
	r := c.Run(sc.Warmup, sc.Measure)
	return ExtGCCell{
		Kind: kind, OPPct: opPct, Trim: trim,
		WA:            r.FTL.WriteAmplification,
		GCRuns:        r.FTL.GCRuns,
		GCPauseP99:    r.FTL.GCPauses.P99,
		ForegroundGCs: r.FTL.ForegroundGCs,
		TrimmedPages:  r.FTL.TrimmedPages,
		LTail:         r.LTenantLatency.P999,
		LAvg:          r.LTenantLatency.Mean,
		TMBps:         r.TThroughputMBps,
	}
}

// RunExtGC sweeps stacks x over-provisioning x trim on the aged device.
func RunExtGC(sc Scale) ExtGCResult {
	type spec struct {
		kind StackKind
		op   float64
		trim bool
	}
	var specs []spec
	for _, kind := range ExtGCStacks {
		for _, op := range ExtGCOPs {
			for _, trim := range []bool{false, true} {
				specs = append(specs, spec{kind, op, trim})
			}
		}
	}
	return ExtGCResult{Cells: RunCells(len(specs), func(i int) ExtGCCell {
		s := specs[i]
		return RunExtGCCell(s.kind, s.op, s.trim, sc)
	})}
}

// WriteText renders the sweep.
func (r ExtGCResult) WriteText(w io.Writer) {
	header(w, "Extension: aged device with FTL garbage collection (4 L + 4 overwrite T)")
	t := newTable(w)
	t.row("stack", "OP%", "trim", "WA", "GC runs", "GC p99 (ms)", "fg GC",
		"L p99.9 (ms)", "L avg (ms)", "T MB/s")
	for _, c := range r.Cells {
		trim := "off"
		if c.Trim {
			trim = "on"
		}
		t.row(string(c.Kind), f1(c.OPPct), trim, f2(c.WA), u64(c.GCRuns),
			ms(c.GCPauseP99), u64(c.ForegroundGCs), ms(c.LTail), ms(c.LAvg), f1(c.TMBps))
	}
	t.flush()
	fmt.Fprintln(w, "\nWA rises as over-provisioning shrinks; TRIM lowers WA by telling GC")
	fmt.Fprintln(w, "which pages are dead. GC inflates every stack's L-tail — device-internal")
	fmt.Fprintln(w, "interference no queue separation removes (§8.1) — but the stack ordering")
	fmt.Fprintln(w, "survives aging.")
}

// Cell returns the (kind, op, trim) measurement, or false.
func (r ExtGCResult) Cell(kind StackKind, op float64, trim bool) (ExtGCCell, bool) {
	for _, c := range r.Cells {
		if c.Kind == kind && c.OPPct == op && c.Trim == trim {
			return c, true
		}
	}
	return ExtGCCell{}, false
}
