package nvme

import (
	"daredevil/internal/cpus"
	"daredevil/internal/sim"
)

// Polling-mode completion: instead of interrupts, a poller on the NCQ's
// core checks the queue at a fixed interval and drains whatever posted.
// The paper focuses on interrupt-driven completion "due to its generality"
// (§2.1); polling is implemented as an extension so its latency/CPU
// trade-off can be quantified on the same workloads (see the ext-poll
// experiment).
//
// The poll loop arms lazily: it runs only while the NCQ has in-flight or
// pending commands, so an idle device costs nothing.

// EnablePolling switches the NCQ to polled completion with the given check
// interval. Pass interval <= 0 to disable and return to interrupts.
func (c *NCQ) EnablePolling(interval sim.Duration) {
	if interval <= 0 {
		c.polled = false
		c.pollEvery = 0
		return
	}
	c.polled = true
	c.pollEvery = interval
	c.dev.armPoll(c)
}

// Polled reports whether the NCQ completes by polling.
func (c *NCQ) Polled() bool { return c.polled }

// armPoll schedules the next poll tick if the NCQ is polled and work may
// arrive.
func (d *Device) armPoll(cq *NCQ) {
	if !cq.polled || cq.pollArmed {
		return
	}
	cq.pollArmed = true
	d.eng.AfterArg(cq.pollEvery, d.pollFireFn, cq)
}

// pollFire is the poll-tick continuation; pollArmed serializes it, so the
// closure bound at construction serves every tick.
//
//ddvet:hotpath
func (cq *NCQ) pollFire() {
	cq.pollArmed = false
	cq.dev.pollTick(cq)
}

// pollTick runs one poll on the NCQ's core: a fixed check cost plus
// per-CQE processing for anything pending, then re-arms while the queue
// has outstanding work.
//
//ddvet:hotpath
func (d *Device) pollTick(cq *NCQ) {
	if !cq.polled {
		return
	}
	batch := cq.pendingCQE
	cq.pendingCQE = nil
	cost := d.cfg.ISREntry / 2 // a poll probe is cheaper than an IRQ entry
	arrive := d.eng.Now()
	for _, cmd := range batch {
		cost += d.cfg.ISRPerCQE
		if cmd.rq.Tenant != nil && cmd.rq.Tenant.Core != cq.irqCore {
			cost += d.cfg.CrossCoreCQE
		}
		if sp := cmd.rq.Span; sp != nil {
			sp.Deliver = arrive
			sp.DCore = cq.irqCore
			sp.Polled = true
		}
	}
	cq.isrQ = append(cq.isrQ, batch)
	d.pool.Core(cq.irqCore).SubmitIRQ(cpus.Work{Cost: cost, ArgFn: d.pollReapWorkFn, Arg: cq})
}

// pollReapRun is the poll reap body: like isrRun, but a reap may find an
// empty batch (the probe cost was still paid), counts non-empty reaps as
// IRQs for merit symmetry, and re-arms the poll while work is outstanding.
//
//ddvet:hotpath
func (cq *NCQ) pollReapRun() sim.Duration {
	d := cq.dev
	batch := cq.isrPop()
	now := d.eng.Now()
	if len(batch) > 0 {
		cq.IRQs++ // counted as completion reaps for merit symmetry
	}
	for _, cmd := range batch {
		rq := cmd.rq
		cq.InFlight--
		cq.Completed++
		if rq.Tenant != nil && rq.Tenant.Core != cq.irqCore {
			rq.CrossCore = true
		}
		// Stale pointers stay in the recycled batch on purpose, as in
		// isrRun: commands are slab-pooled.
		d.releaseCmd(cmd)
		rq.Complete(now)
	}
	if batch != nil {
		cq.spare = append(cq.spare, batch[:0])
	}
	if cq.InFlight > 0 || len(cq.pendingCQE) > 0 {
		d.armPoll(cq)
	}
	return 0
}
