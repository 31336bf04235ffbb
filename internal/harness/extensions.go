package harness

import (
	"io"
	"strconv"

	"daredevil/internal/nvme"
	"daredevil/internal/sim"
	"daredevil/internal/virtio"
	"daredevil/internal/workload"
)

// This file holds the extension experiments that go beyond the paper's
// evaluation: the Kyber-style I/O scheduler baseline (§9 related work), the
// NVMe WRR arbitration ablation (§2.1 sidesteps it), polled completion
// (§2.1 focuses on interrupts), and the §8.1 VM/virtio future-work design.

// Kyber is the I/O-scheduler baseline stack kind (extension).
const Kyber StackKind = "kyber"

// ExtSchedCell is one (stack, T-count) cell of the scheduler comparison.
type ExtSchedCell struct {
	Kind   StackKind
	TCount int
	Tail   sim.Duration
	Avg    sim.Duration
	TMBps  float64
	LOps   uint64
}

// ExtSchedResult compares vanilla, the Kyber-style scheduler, and Daredevil:
// an I/O scheduler on blk-mq can restore L-latency only by throttling
// T-requests before the NQs, paying with device utilization.
type ExtSchedResult struct {
	Cells []ExtSchedCell
}

// RunExtSchedulers sweeps T-pressure for the three stacks.
func RunExtSchedulers(sc Scale) ExtSchedResult {
	kinds := []StackKind{Vanilla, Kyber, DareFull}
	counts := []int{4, 16, 32}
	grid := RunMixGrid(SVM(4), kinds, 4, counts, sc)
	var res ExtSchedResult
	for ki, kind := range kinds {
		for ti, n := range counts {
			r := grid[ki*len(counts)+ti]
			res.Cells = append(res.Cells, ExtSchedCell{
				Kind: kind, TCount: n,
				Tail: r.LTenantLatency.P999, Avg: r.LTenantLatency.Mean, TMBps: r.TThroughputMBps, LOps: r.LTenantLatency.Count,
			})
		}
	}
	return res
}

// WriteText renders the comparison.
func (r ExtSchedResult) WriteText(w io.Writer) {
	header(w, "Extension: I/O schedulers on blk-mq vs Daredevil")
	t := newTable(w)
	t.row("stack", "T-tenants", "tail p99.9 (ms)", "avg (ms)", "T MB/s")
	for _, c := range r.Cells {
		tail, avg := ms(c.Tail), ms(c.Avg)
		if c.LOps == 0 {
			tail, avg = "blocked", "blocked"
		}
		t.row(string(c.Kind), strconv.Itoa(c.TCount), tail, avg, f1(c.TMBps))
	}
	t.flush()
}

// Cell returns the measurement for (kind, tCount), or false.
func (r ExtSchedResult) Cell(kind StackKind, tCount int) (ExtSchedCell, bool) {
	for _, c := range r.Cells {
		if c.Kind == kind && c.TCount == tCount {
			return c, true
		}
	}
	return ExtSchedCell{}, false
}

// ExtWRRRow is one arbitration-mode measurement.
type ExtWRRRow struct {
	Arbitration string
	TCount      int
	Tail        sim.Duration
	Avg         sim.Duration
	TMBps       float64
}

// ExtWRRResult quantifies what Daredevil gains when the controller
// arbitration cooperates: with WRR, high-class (L) NSQs are also fetched
// preferentially, shaving the fetch-side share of HOL delay.
type ExtWRRResult struct {
	Rows []ExtWRRRow
}

// RunExtWRR runs Daredevil on round-robin and WRR controllers.
func RunExtWRR(sc Scale) ExtWRRResult {
	counts := []int{16, 32}
	return ExtWRRResult{Rows: RunCells(2*len(counts), func(i int) ExtWRRRow {
		m := SVM(4)
		name := "round-robin"
		if i >= len(counts) {
			m.NVMe.Arbitration = nvme.ArbWeightedRoundRobin
			name = "weighted-rr"
		}
		n := counts[i%len(counts)]
		r := RunMixOnce(m, DareFull, 4, n, sc)
		return ExtWRRRow{
			Arbitration: name, TCount: n,
			Tail: r.LTenantLatency.P999, Avg: r.LTenantLatency.Mean, TMBps: r.TThroughputMBps,
		}
	})}
}

// WriteText renders the ablation.
func (r ExtWRRResult) WriteText(w io.Writer) {
	header(w, "Extension: Daredevil under NVMe controller arbitration modes")
	t := newTable(w)
	t.row("arbitration", "T-tenants", "tail p99.9 (ms)", "avg (ms)", "T MB/s")
	for _, row := range r.Rows {
		t.row(row.Arbitration, strconv.Itoa(row.TCount), ms(row.Tail), ms(row.Avg), f1(row.TMBps))
	}
	t.flush()
}

// ExtPollRow is one completion-mode measurement.
type ExtPollRow struct {
	Mode    string
	Tail    sim.Duration
	Avg     sim.Duration
	CPUUtil float64
}

// ExtPollResult contrasts interrupt-driven completion with polling the
// high-priority NCQs — the latency/CPU trade the paper scopes out (§2.1).
type ExtPollResult struct {
	Rows []ExtPollRow
}

// RunExtPolling runs Daredevil with interrupts, then with 2µs polling on
// the high-priority NCQs. The workload is L-only: polling's µs-scale win
// is visible only when the device floor is µs-scale (under T-pressure the
// ms-scale flash backlog hides it — which is itself a finding).
func RunExtPolling(sc Scale) ExtPollResult {
	return ExtPollResult{Rows: RunCells(2, func(i int) ExtPollRow {
		c := NewCell(SVM(4), DareFull)
		mode := "interrupts"
		if i == 1 {
			mode = "polled-high-NCQs"
			half := c.Env.Dev.NumNCQ() / 2
			for q := 0; q < half; q++ {
				c.Env.Dev.NCQOf(q).EnablePolling(2 * sim.Microsecond)
			}
		}
		c.Mix.AddL(4, 0)
		r := c.Run(sc.Warmup, sc.Measure)
		return ExtPollRow{Mode: mode, Tail: r.LTenantLatency.P999, Avg: r.LTenantLatency.Mean, CPUUtil: r.CPUUtilization}
	})}
}

// WriteText renders the comparison.
func (r ExtPollResult) WriteText(w io.Writer) {
	header(w, "Extension: interrupt vs polled completion for L-tenants (Daredevil, 4 L-tenants)")
	t := newTable(w)
	t.row("completion", "tail p99.9 (µs)", "avg (µs)", "CPU util")
	for _, row := range r.Rows {
		t.row(row.Mode, us(row.Tail), us(row.Avg), f2(row.CPUUtil))
	}
	t.flush()
}

// ExtVirtioRow is one (guest mode, host stack) measurement of guest
// L-tenant latency.
type ExtVirtioRow struct {
	Guest string
	Host  StackKind
	Tail  sim.Duration
	Avg   sim.Duration
}

// ExtVirtioResult evaluates the §8.1 VM design: only a decoupled guest on a
// Daredevil host keeps guest L-requests separated end-to-end.
type ExtVirtioResult struct {
	Rows []ExtVirtioRow
}

// RunExtVirtio runs 2 guest L-tenants + 8 guest T-tenants through a VM on
// each (guest mode, host stack) combination.
func RunExtVirtio(sc Scale) ExtVirtioResult {
	combos := []struct {
		mode virtio.GuestMode
		host StackKind
	}{
		{virtio.GuestMixed, Vanilla},
		{virtio.GuestMixed, DareFull},
		{virtio.GuestDecoupled, DareFull},
	}
	return ExtVirtioResult{Rows: RunCells(len(combos), func(i int) ExtVirtioRow {
		cb := combos[i]
		c := NewCell(SVM(4), cb.host)
		// Guest tenants drive the VM as their "stack".
		c.Env.Stack = virtio.New(c.Env.Eng, c.Env.Pool, c.Env.Stack, virtio.DefaultConfig(cb.mode, 4))
		for j := 0; j < 2; j++ {
			c.Mix.addJob(100+j, workload.DefaultLTenant("guest-L", j%4))
		}
		for j := 0; j < 8; j++ {
			c.Mix.addJob(200+j, workload.DefaultTTenant("guest-T", j%4))
		}
		r := c.Run(sc.Warmup, sc.Measure)
		return ExtVirtioRow{
			Guest: cb.mode.String(), Host: cb.host,
			Tail: r.LTenantLatency.P999, Avg: r.LTenantLatency.Mean,
		}
	})}
}

// WriteText renders the combinations.
func (r ExtVirtioResult) WriteText(w io.Writer) {
	header(w, "Extension (§8.1): guest L-tenant latency across virtio designs (2 guest L + 8 guest T)")
	t := newTable(w)
	t.row("guest virtio", "host stack", "tail p99.9 (ms)", "avg (ms)")
	for _, row := range r.Rows {
		t.row(row.Guest, string(row.Host), ms(row.Tail), ms(row.Avg))
	}
	t.flush()
}

// Row returns the (guest, host) measurement, or false.
func (r ExtVirtioResult) Row(guest string, host StackKind) (ExtVirtioRow, bool) {
	for _, row := range r.Rows {
		if row.Guest == guest && row.Host == host {
			return row, true
		}
	}
	return ExtVirtioRow{}, false
}
