package harness

import (
	"fmt"

	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

// Observability wiring for one cell: EnableObs builds the cell's Observer,
// attaches it to the device and FTL, and registers the machine's gauge set
// in a fixed order so every export iterates identically across runs and
// parallelism settings.

// EnableObs switches observability on for the cell. traceLimit > 0 enables
// span tracing (and the flight recorder) bounded to that many spans;
// samplerWindow > 0 enables the metrics sampler at that cadence, with the
// standard gauge set registered. Idempotent per surface; returns the
// observer for direct use.
func (e *Env) EnableObs(traceLimit int, samplerWindow sim.Duration) *obs.Observer {
	if e.Obs == nil {
		e.Obs = obs.New(e.Eng)
	}
	if traceLimit > 0 {
		e.Obs.EnableTrace(traceLimit)
	}
	if samplerWindow > 0 && e.Obs.Sampler() == nil {
		e.Obs.EnableSampler(samplerWindow)
		e.registerGauges(samplerWindow)
	}
	e.Dev.AttachObs(e.Obs)
	if e.FTL != nil {
		e.FTL.AttachObs(e.Obs)
	}
	return e.Obs
}

// registerGauges installs the standard gauge set. Order here is export
// order — append only, never reorder, or saved metrics files stop being
// comparable across revisions.
func (e *Env) registerGauges(window sim.Duration) {
	r := &e.Obs.Registry
	winSec := window.Seconds()

	// Per-core busy fraction and IRQ share over the window (deltas of the
	// cores' cumulative busy meters).
	for i := 0; i < e.Pool.N(); i++ {
		core := e.Pool.Core(i)
		var lastBusy, lastIRQ sim.Duration
		r.Register(fmt.Sprintf("core%d.busy", i), func() float64 {
			d := core.BusyTime - lastBusy
			lastBusy = core.BusyTime
			return d.Seconds() / winSec
		})
		r.Register(fmt.Sprintf("core%d.irq", i), func() float64 {
			d := core.IRQBusyTime - lastIRQ
			lastIRQ = core.IRQBusyTime
			return d.Seconds() / winSec
		})
	}

	// Queue occupancy: total and deepest NSQ backlog, controller in-flight
	// window, CQEs awaiting delivery.
	dev := e.Dev
	r.Register("nsq.queued", func() float64 { return float64(dev.QueuedTotal()) })
	r.Register("nsq.max", func() float64 { return float64(dev.MaxNSQLen()) })
	r.Register("dev.inflight", func() float64 { return float64(dev.Inflight()) })
	r.Register("ncq.pending", func() float64 { return float64(dev.PendingCQETotal()) })

	// Media backlog: the worst per-chip queue, in microseconds of work.
	eng := e.Eng
	r.Register("chip.backlog_max_us", func() float64 {
		return dev.Media().MaxBacklog(eng.Now()).Microseconds()
	})

	if e.FTL != nil {
		f := e.FTL
		r.Register("ftl.free_blocks", func() float64 { return float64(f.FreeBlocks()) })
		r.Register("ftl.waf", func() float64 { return f.Stats().WriteAmplification() })
		var lastFG uint64
		r.Register("ftl.fggc", func() float64 {
			cur := f.Stats().ForegroundGCs
			d := float64(cur) - float64(lastFG)
			lastFG = cur
			if d < 0 {
				d = 0 // stats were reset (warmup boundary) inside the window
			}
			return d
		})
	}

	// Recovery-ladder activity per window (deltas; zero on a healthy run).
	var lastTimeouts, lastResets, lastCancels uint64
	r.Register("recovery.timeouts", func() float64 {
		d := dev.Timeouts - lastTimeouts
		lastTimeouts = dev.Timeouts
		return float64(d)
	})
	r.Register("recovery.resets", func() float64 {
		d := dev.Resets - lastResets
		lastResets = dev.Resets
		return float64(d)
	})
	r.Register("recovery.cancels", func() float64 {
		d := dev.CancelledCmds - lastCancels
		lastCancels = dev.CancelledCmds
		return float64(d)
	})
}

// ObsDemo is the canonical instrumented cell: the Daredevil stack under the
// brownout fault profile with tracing, sampling, and the flight recorder
// all armed — the cell ddbench -obs exports and CI archives.
type ObsDemo struct {
	Trace   []byte // Chrome trace-event JSON
	Metrics []byte // sampled gauges, CSV
	SVG     []byte // sparkline small multiples
	Flight  []byte // flight-recorder dumps, text
}

// RunObsDemo runs the demo cell at the given scale and returns its exports.
func RunObsDemo(sc Scale) (ObsDemo, error) {
	m := SVM(4)
	fs := ExtFaultSchedule(FaultBrownout, DefaultFaultSeed,
		sc.Warmup+sc.Measure/4, sc.Warmup+sc.Measure/2)
	m.Fault = &fs
	c := NewCell(m, DareFull)
	window := sc.Measure / 64
	if window <= 0 {
		window = sim.Millisecond
	}
	c.Env.EnableObs(obs.DefaultTraceLimit, window)
	c.Mix.AddL(4, 0)
	c.Mix.AddT(2, 0)
	c.Run(sc.Warmup, sc.Measure)

	var d ObsDemo
	err := renderAll(
		export{&d.Trace, c.WriteTraceJSON},
		export{&d.Metrics, c.WriteMetricsCSV},
		export{&d.SVG, c.WriteMetricsSVG},
		export{&d.Flight, c.WriteFlight},
	)
	return d, err
}
