package harness

import (
	"io"

	"daredevil/internal/sim"
	"daredevil/internal/workload"
)

// ExtWebappRow is one stack's measurement of the paper's introductory
// scenario: an interactive web application sharing the SSD with a
// deep-learning trainer that periodically checkpoints model state.
type ExtWebappRow struct {
	Kind StackKind
	// Web-app page-load latency (open-loop 4KB reads).
	WebAvg  sim.Duration
	WebP99  sim.Duration
	WebP999 sim.Duration
	// Checkpoint duration and count.
	CheckpointAvg sim.Duration
	Checkpoints   uint64
}

// ExtWebappResult reproduces the §1 motivation as a tracked experiment.
type ExtWebappResult struct {
	Rows []ExtWebappRow
}

// RunExtWebapp runs the web app (5k req/s open loop) co-located with a
// 256 MiB / 500 ms checkpointer on each comparison stack.
func RunExtWebapp(sc Scale) ExtWebappResult {
	// The scenario needs several checkpoint periods; stretch the window
	// accordingly.
	measure := 4 * sc.Measure
	if measure < 2*sim.Second {
		measure = 2 * sim.Second
	}
	return ExtWebappResult{Rows: RunCells(len(ComparisonKinds), func(i int) ExtWebappRow {
		c := NewCell(SVM(4), ComparisonKinds[i])
		webCfg := workload.DefaultLTenant("webapp", 0)
		webCfg.Arrival = 200 * sim.Microsecond
		c.Mix.addJob(1, webCfg)

		ckCfg := workload.DefaultCheckpointConfig("trainer", 0)
		ckCfg.Size = 256 << 20
		ckCfg.QD = 256
		ck := checkpointApp{workload.NewCheckpointer(2, ckCfg)}
		c.Aux = append(c.Aux, ck)

		w := c.Run(sc.Warmup, measure).LTenantLatency
		return ExtWebappRow{
			Kind:   ComparisonKinds[i],
			WebAvg: w.Mean, WebP99: w.P99, WebP999: w.P999,
			CheckpointAvg: ck.Durations.Mean(),
			Checkpoints:   ck.Completed,
		}
	})}
}

// checkpointApp rides the DL trainer on a cell.
type checkpointApp struct{ *workload.Checkpointer }

func (c checkpointApp) Start(env *Env) { c.Checkpointer.Start(env.Eng, env.Pool, env.Stack) }
func (c checkpointApp) Reset()         { c.ResetStats() }

// WriteText renders the scenario rows.
func (r ExtWebappResult) WriteText(w io.Writer) {
	header(w, "Extension (§1): interactive web app + DL checkpointing trainer")
	t := newTable(w)
	t.row("stack", "page avg (ms)", "page p99 (ms)", "page p99.9 (ms)", "checkpoint avg (ms)", "checkpoints")
	for _, row := range r.Rows {
		t.row(string(row.Kind), ms(row.WebAvg), ms(row.WebP99), ms(row.WebP999),
			ms(row.CheckpointAvg), u64(row.Checkpoints))
	}
	t.flush()
}

// Row returns the measurement for kind, or false.
func (r ExtWebappResult) Row(kind StackKind) (ExtWebappRow, bool) {
	for _, row := range r.Rows {
		if row.Kind == kind {
			return row, true
		}
	}
	return ExtWebappRow{}, false
}
