// Aged: the device side of the paper's §8.1 interference story. The same
// workload — 4 latency-critical L-tenants next to 4 overwrite-heavy
// T-tenants — runs twice per stack: once on a fresh device (the default
// effective-latency flash model) and once on an aged one, where the
// internal/ftl translation layer is collecting garbage underneath. GC
// relocation reads/programs and block erases enter the same per-die FIFOs
// as foreground I/O, so aging inflates the L-tail on *every* stack — the
// device-internal interference no amount of queue separation removes — yet
// Daredevil's ordering over vanilla survives.
//
//	go run ./examples/aged
package main

import (
	"fmt"

	"daredevil/internal/ftl"
	"daredevil/internal/harness"
	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

type row struct {
	lAvg, lP999 sim.Duration
	tMBps       float64
	wa          float64
	gcRuns      uint64
}

func run(kind harness.StackKind, aged bool) row {
	m := harness.SVM(4)
	if aged {
		fcfg := ftl.DefaultConfig()
		fcfg.OPPct = 7 // consumer-drive over-provisioning: GC works hardest
		m.FTL = &fcfg
	}
	c := harness.NewCell(m, kind)
	c.Mix.AddL(4, 0)
	for i := 0; i < 4; i++ {
		cfg := workload.DefaultTTenant("fio-T", i%c.Env.Pool.N())
		cfg.Pattern = workload.Random // random overwrites are the canonical GC workload
		cfg.ReadPct = 0
		cfg.IODepth = 4
		c.Mix.TJobs = append(c.Mix.TJobs, workload.NewJob(100+i, cfg))
	}
	r := c.Run(150*sim.Millisecond, 600*sim.Millisecond)
	out := row{lAvg: r.LTenantLatency.Mean, lP999: r.LTenantLatency.P999, tMBps: r.TThroughputMBps, wa: 1}
	if r.FTL != nil {
		out.wa = r.FTL.WriteAmplification
		out.gcRuns = r.FTL.GCRuns
	}
	return out
}

func main() {
	fmt.Println("Fresh vs aged device, 4 L-tenants + 4 overwrite T-tenants (7% OP when aged):")
	fmt.Println()
	fmt.Printf("%-10s %-6s %14s %14s %10s %6s %8s\n",
		"stack", "device", "L avg", "L p99.9", "T MB/s", "WA", "GC runs")
	for _, kind := range []harness.StackKind{harness.Vanilla, harness.DareFull} {
		fresh := run(kind, false)
		aged := run(kind, true)
		fmt.Printf("%-10s %-6s %14v %14v %10.1f %6.2f %8d\n",
			kind, "fresh", fresh.lAvg, fresh.lP999, fresh.tMBps, fresh.wa, fresh.gcRuns)
		fmt.Printf("%-10s %-6s %14v %14v %10.1f %6.2f %8d\n",
			kind, "aged", aged.lAvg, aged.lP999, aged.tMBps, aged.wa, aged.gcRuns)
	}
	fmt.Println()
	fmt.Println("Aging inflates the L-tail on both stacks: GC's relocations and erases")
	fmt.Println("share the die FIFOs with foreground I/O, and write amplification eats")
	fmt.Println("T bandwidth. But the stack ordering survives — Daredevil still holds")
	fmt.Println("the L-tenants below vanilla on the same aged device (try `ddbench")
	fmt.Println("ext-gc` for the full over-provisioning x TRIM sweep).")
}
