package harness

import (
	"io"

	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// Fig12Cell is one (application, stack) measurement.
type Fig12Cell struct {
	Workload string // "YCSB-A" ... "Mailserver"
	Kind     StackKind
	// Metrics maps op type to the reported statistic: p99.9 for YCSB
	// (the paper's Figures 12a-d), mean for Mailserver (12e).
	Metrics map[workload.OpType]sim.Duration
	// Ops counts completed application operations in the window.
	Ops uint64
}

// Fig12Result reproduces Figure 12: real-world applicability with RocksDB
// under YCSB and Filebench Mailserver, co-located with 8 streaming
// T-tenants on 4 cores.
type Fig12Result struct {
	Cells []Fig12Cell
}

// ycsbHeadlineOps maps the YCSB kind to the op types Figure 12 plots.
var ycsbHeadlineOps = map[workload.YCSBKind][]workload.OpType{
	workload.YCSBA: {workload.OpUpdate, workload.OpGet},
	workload.YCSBB: {workload.OpGet, workload.OpUpdate},
	workload.YCSBE: {workload.OpInsert, workload.OpScan},
	workload.YCSBF: {workload.OpGet, workload.OpRMW},
}

// RunFig12 runs every application on every comparison stack.
func RunFig12(sc Scale) Fig12Result {
	type spec struct {
		kind StackKind
		ycsb workload.YCSBKind
		mail bool
	}
	var specs []spec
	for _, kind := range ComparisonKinds {
		for _, ycsbKind := range []workload.YCSBKind{workload.YCSBA, workload.YCSBB, workload.YCSBE, workload.YCSBF} {
			specs = append(specs, spec{kind: kind, ycsb: ycsbKind})
		}
		specs = append(specs, spec{kind: kind, mail: true})
	}
	return Fig12Result{Cells: RunCells(len(specs), func(i int) Fig12Cell {
		s := specs[i]
		// The §7.4 background pressure: 8 streaming T-tenants.
		c := NewCell(SVM(4), s.kind)
		c.Mix.AddT(8, 0)
		if s.mail {
			mail := NewMailApp(2000, 0)
			c.Aux = append(c.Aux, mail)
			c.Run(sc.Warmup, sc.Measure)
			return Fig12Cell{
				Workload: "Mailserver", Kind: s.kind,
				Metrics: map[workload.OpType]sim.Duration{
					workload.OpFsync:  mail.OpLatency(workload.OpFsync).Mean,
					workload.OpDelete: mail.OpLatency(workload.OpDelete).Mean,
				},
				Ops: mail.mail.Ops - mail.ops0,
			}
		}
		// Four closed-loop clients, like YCSB's client threads.
		kv := NewKVApp(s.ycsb, 1000, 0, 1, 4, 42)
		c.Aux = append(c.Aux, kv)
		c.Run(sc.Warmup, sc.Measure)
		cell := Fig12Cell{
			Workload: "YCSB-" + string(s.ycsb), Kind: s.kind,
			Metrics: map[workload.OpType]sim.Duration{},
			Ops:     kv.Ops() - kv.ops0,
		}
		for _, op := range ycsbHeadlineOps[s.ycsb] {
			cell.Metrics[op] = kv.OpLatency(op).P999
		}
		return cell
	})}
}

// WriteText renders the per-application panels.
func (r Fig12Result) WriteText(w io.Writer) {
	header(w, "Figure 12: real-world workloads (YCSB p99.9, Mailserver mean; ms)")
	t := newTable(w)
	t.row("workload", "stack", "op", "latency (ms)", "ops")
	for _, c := range r.Cells {
		for _, op := range orderedOps(c) {
			t.row(c.Workload, string(c.Kind), string(op), ms(c.Metrics[op]), u64(c.Ops))
		}
	}
	t.flush()
}

func orderedOps(c Fig12Cell) []workload.OpType {
	order := []workload.OpType{
		workload.OpUpdate, workload.OpGet, workload.OpInsert,
		workload.OpScan, workload.OpRMW, workload.OpFsync, workload.OpDelete,
	}
	var out []workload.OpType
	for _, op := range order {
		if _, ok := c.Metrics[op]; ok {
			out = append(out, op)
		}
	}
	return out
}

// Cell returns the measurement for (workload, kind), or false.
func (r Fig12Result) Cell(wl string, kind StackKind) (Fig12Cell, bool) {
	for _, c := range r.Cells {
		if c.Workload == wl && c.Kind == kind {
			return c, true
		}
	}
	return Fig12Cell{}, false
}
