// Host-side error recovery: per-command expiry, the Abort admin command,
// and controller reset — the model of Linux's nvme_timeout() escalation
// ladder (drivers/nvme/host/pci.c).
//
// Linux arms a timer per request (blk_mq_start_request); on expiry
// nvme_timeout issues an Abort admin command to the controller, and if the
// command cannot be aborted — it is genuinely executing, or the abort
// itself times out — escalates to nvme_reset_ctrl: the controller is
// disabled, every queue pair is torn down, in-flight requests are
// cancelled and requeued through blk-mq, and the controller re-initializes
// before I/O resumes.
//
// The model keeps that structure with one simplification: because fetches
// are serialized and CmdTimeout is a constant, commands expire in fetch
// order, so a FIFO of (command, seq) refs plus ONE armed engine event
// replaces per-command timers. That is also what keeps the recovery path
// allocation-free: arming an expiry reuses the engine's slot free-list via
// the pre-bound expiryFn, never sim.AfterTimer (which allocates a Timer
// per call).
package nvme

import (
	"errors"

	"daredevil/internal/block"
	"daredevil/internal/fault"
	"daredevil/internal/sim"
)

// cmdState is a command's recovery lifecycle.
type cmdState uint8

const (
	// cmdQueued: enqueued in an NSQ, not yet fetched.
	cmdQueued cmdState = iota
	// cmdInflight: fetched by the controller; a completion or expiry is due.
	cmdInflight
	// cmdAborting: host expiry fired; an Abort admin command is in flight.
	cmdAborting
	// cmdCancelled: torn out of the device by abort or reset; the request
	// went back to the host.
	cmdCancelled
	// cmdDone: completed normally (possibly with a media error verdict).
	cmdDone
)

// ErrCancelled completes a request the device cancelled when no host
// recovery handler is attached (stacks attach one via stackbase; raw-device
// users see the error directly so nothing is silently lost).
var ErrCancelled = errors.New("nvme: command cancelled by controller recovery")

// expiryRef is one armed per-command expiry. seq detects stale refs: if the
// command object was recycled, its seq moved on and the ref is dead.
type expiryRef struct {
	c   *command
	seq uint64
}

// AttachFault installs a fault injector on the device. Schedules that can
// lose commands require host recovery (CmdTimeout > 0): a lost command
// with no expiry would hang the simulation forever, so that combination
// panics at construction time rather than deadlocking silently. Attaching
// also enables the controller's internal retry ladder if the config left
// it off, since the injector can generate media errors on its own.
func (d *Device) AttachFault(inj *fault.Injector) {
	if inj != nil && inj.CanLoseCommands() && d.cfg.CmdTimeout <= 0 {
		panic("nvme: fault schedule can lose commands but CmdTimeout is zero; lost commands would hang the simulation")
	}
	if inj != nil && d.cfg.MediaRetries == 0 {
		d.cfg.MediaRetries = 3
	}
	d.inj = inj
}

// Fault returns the attached injector, or nil.
func (d *Device) Fault() *fault.Injector { return d.inj }

// SetCancelHandler installs the host's requeue hook: cancelled requests are
// handed to fn instead of completing with ErrCancelled. The stacks install
// stackbase's backoff requeue here (stackbase.AttachRecovery).
func (d *Device) SetCancelHandler(fn func(*block.Request)) { d.cancelFn = fn }

// Resetting reports whether the controller is re-initializing after a reset.
func (d *Device) Resetting() bool { return d.resetting }

// armExpiry registers the freshly fetched command with the host's expiry
// scan. Constant CmdTimeout + serialized fetches mean deadlines are
// non-decreasing in FIFO order, so one armed event (at the head deadline)
// covers the whole queue.
//
//ddvet:hotpath
func (d *Device) armExpiry(c *command) {
	if d.cfg.CmdTimeout <= 0 {
		return
	}
	c.deadline = d.eng.Now().Add(d.cfg.CmdTimeout)
	d.expq = append(d.expq, expiryRef{c: c, seq: c.seq})
	if !d.expiryArmed {
		d.expiryArmed = true
		d.eng.At(c.deadline, d.expiryFn)
	}
}

// checkExpiry is the expiry-scan continuation: consume refs that are stale
// or due, time out the due ones, and re-arm at the next live deadline.
//
//ddvet:hotpath
func (d *Device) checkExpiry() {
	d.expiryArmed = false
	now := d.eng.Now()
	for d.expHead < len(d.expq) {
		ref := d.expq[d.expHead]
		c := ref.c
		if c.seq != ref.seq || c.state != cmdInflight {
			// Recycled, completed, already aborting, or cancelled by a
			// reset — the ref is dead either way.
			d.expq[d.expHead] = expiryRef{}
			d.expHead++
			continue
		}
		if c.deadline > now {
			break
		}
		d.expq[d.expHead] = expiryRef{}
		d.expHead++
		d.timeoutCommand(c)
	}
	if d.expHead > 64 && d.expHead*2 >= len(d.expq) {
		d.expq = append(d.expq[:0], d.expq[d.expHead:]...)
		d.expHead = 0
	}
	if d.expHead < len(d.expq) {
		d.expiryArmed = true
		at := d.expq[d.expHead].c.deadline
		if at < now {
			at = now // defensive: never schedule into the past
		}
		d.eng.At(at, d.expiryFn)
	}
}

// timeoutCommand starts the escalation ladder for one expired command: an
// Abort admin command goes out; its completion decides between cancel and
// controller reset.
func (d *Device) timeoutCommand(c *command) {
	d.Timeouts++
	c.state = cmdAborting
	c.pendingAbort = true
	now := d.eng.Now()
	d.frRec.Record(now, frTimeout, c.rq.ID, int64(c.nsq.ID))
	d.tracer.RecordInstant("timeout", now, "")
	d.flight.Trigger("timeout", now)
	d.eng.AfterArg(d.cfg.AbortCost, d.abortDoneFn, c)
}

// abortDone is the Abort admin command's completion. Three outcomes, as on
// real controllers: the target already completed (benign race), the target
// was abandoned and is cancelled back to the host, or the target is
// genuinely executing and the host escalates to a controller reset.
func (c *command) abortDone() {
	d := c.dev
	c.pendingAbort = false
	if c.state != cmdAborting {
		// The command completed or a reset swept it while the Abort was in
		// flight.
		d.AbortRaces++
		d.frRec.Record(d.eng.Now(), frAbortRace, 0, 0)
		d.maybeUnpark(c)
		return
	}
	d.Aborts++
	if c.lost {
		// Nothing is executing on the media: the abort succeeds and the
		// host gets the request back for requeue.
		d.frRec.Record(d.eng.Now(), frAbortCancel, c.rq.ID, 0)
		d.tracer.RecordInstant("abort", d.eng.Now(), "cancelled")
		d.cancelCommand(c)
		return
	}
	// The command is still executing (e.g. a CQE delayed past the expiry):
	// the controller cannot abort it. Linux answer: reset the controller.
	// The command itself is cancelled here — its expiry ref was consumed at
	// timeout, so the reset's sweep cannot see it.
	d.AbortFails++
	d.frRec.Record(d.eng.Now(), frAbortEsc, c.rq.ID, 0)
	d.tracer.RecordInstant("abort", d.eng.Now(), "escalate")
	d.cancelCommand(c)
	d.controllerReset()
}

// cancelCommand tears one fetched-but-unfinished command out of the device
// and hands its request back to the host.
func (d *Device) cancelCommand(c *command) {
	rq := c.rq
	c.state = cmdCancelled
	d.inflight--
	c.nsq.ncq.InFlight--
	d.CancelledCmds++
	d.frRec.Record(d.eng.Now(), frCancel, rq.ID, 0)
	if !c.pendingDone {
		d.releaseCmd(c)
	}
	// else the in-flight doneFn observes cmdCancelled and finishes the
	// release; the request must not wait for it.
	d.deliverCancel(rq)
}

// deliverCancel routes a cancelled request to the host's requeue hook, or
// fails it in place so every request still ends exactly once.
func (d *Device) deliverCancel(rq *block.Request) {
	if d.cancelFn != nil {
		d.cancelFn(rq)
		return
	}
	rq.Err = ErrCancelled
	rq.Complete(d.eng.Now())
}

// controllerReset models nvme_reset_ctrl: tear down every queue pair,
// cancel all fetched and queued commands back to the host, void the
// in-flight fetch, and hold off all I/O for ResetDelay while the
// controller re-initializes.
func (d *Device) controllerReset() {
	if d.resetting {
		return // a reset is already in progress; it sweeps everything
	}
	d.resetting = true
	d.Resets++
	now := d.eng.Now()
	d.frRec.Record(now, frReset, 0, 0)
	d.tracer.RecordInstant("reset", now, "")
	d.flight.Trigger("reset", now)
	if d.fetchBusy {
		d.fetchAborted = true
	}
	// Unfetched NSQ entries never reached the controller's in-flight
	// window; they go straight back to the host.
	for _, q := range d.nsqs {
		for i := q.head; i < len(q.entries); i++ {
			c := q.entries[i]
			q.entries[i] = nil
			rq := c.rq
			c.state = cmdCancelled
			d.CancelledCmds++
			d.releaseCmd(c)
			d.deliverCancel(rq)
		}
		q.entries = q.entries[:0]
		q.head = 0
		q.visible = 0
	}
	clear(d.ready)
	for _, m := range d.classReady {
		clear(m)
	}
	// In-flight commands (fetched, no CQE processed) are enumerated by the
	// expiry FIFO — every fetched command is registered there while
	// CmdTimeout > 0, and controllerReset is only reachable through a
	// timeout.
	for i := d.expHead; i < len(d.expq); i++ {
		ref := d.expq[i]
		d.expq[i] = expiryRef{}
		c := ref.c
		if c.seq != ref.seq || c.state == cmdDone || c.state == cmdCancelled {
			continue
		}
		d.cancelCommand(c)
	}
	d.expHead = 0
	d.expq = d.expq[:0]
	// CQEs posted but not yet claimed by an ISR die with the queue pair;
	// their requests are cancelled like in-flight ones. Batches already
	// handed to a core's ISR complete normally — the interrupt beat the
	// reset to the host.
	for _, cq := range d.ncqs {
		if cq.timer != nil {
			cq.timer.Stop()
			cq.timer = nil
		}
		batch := cq.pendingCQE
		cq.pendingCQE = nil
		for i, c := range batch {
			batch[i] = nil
			rq := c.rq
			cq.InFlight--
			c.state = cmdCancelled
			d.CancelledCmds++
			d.releaseCmd(c)
			d.deliverCancel(rq)
		}
		if batch != nil {
			cq.spare = append(cq.spare, batch[:0])
		}
	}
	d.eng.After(d.cfg.ResetDelay, d.resetFn)
}

// finishReset re-enables the controller after the re-init delay.
func (d *Device) finishReset() {
	d.resetting = false
	d.frRec.Record(d.eng.Now(), frResetDone, 0, 0)
	d.tracer.RecordInstant("reset-done", d.eng.Now(), "")
	d.maybeFetch()
}

// deferFetch parks the fetch engine until a controller hiccup window
// closes. hiccupArmed serializes the pre-bound resume continuation.
//
//ddvet:hotpath
func (d *Device) deferFetch(until sim.Time) {
	if d.hiccupArmed {
		return
	}
	d.hiccupArmed = true
	d.eng.At(until, d.resumeFn)
}

// hiccupResume is the hiccup-window-end continuation.
func (d *Device) hiccupResume() {
	d.hiccupArmed = false
	d.maybeFetch()
}
