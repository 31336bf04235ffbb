// Package stackbase factors out the plumbing every storage stack shares:
// the environment handles (engine, cores, device), block-layer I/O
// splitting, request-ID allocation, the requeue-on-full path that mirrors
// blk-mq's BLK_STS_RESOURCE handling, and the host side of device error
// recovery — resubmission of commands the device cancelled during
// timeout/abort/reset handling, with capped exponential backoff and a
// terminal-failure verdict after MaxRequeues attempts.
package stackbase

import (
	"errors"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/nvme"
	"daredevil/internal/sim"
)

// Env bundles the simulated machine a stack operates on.
type Env struct {
	Eng  *sim.Engine
	Pool *cpus.Pool
	Dev  *nvme.Device
}

// Base provides common stack mechanics. Embed it in stack implementations.
type Base struct {
	Env

	// MaxIOSize is the block-layer split threshold (kernel I/O splitting,
	// §2.3). Zero disables splitting.
	MaxIOSize int64
	// RetryDelay is the initial backoff before re-attempting a submission
	// that found its NSQ full; successive attempts for the same submission
	// double it up to RetryMaxDelay.
	RetryDelay sim.Duration
	// RetryMaxDelay caps the exponential backoff (blk-mq's
	// BLK_MQ_RESOURCE_DELAY is a fixed 3ms; a capped ramp keeps the fast
	// first retry while preventing a persistently full queue from being
	// hammered every 10µs forever).
	RetryMaxDelay sim.Duration
	// RequeueCost is the CPU cost of a requeue attempt.
	RequeueCost sim.Duration
	// MaxRequeues bounds host resubmissions of a device-cancelled request;
	// past it the request completes terminally with ErrTerminal (Linux:
	// the bio ends with BLK_STS_IOERR once requeue budget is exhausted).
	// Full-NSQ retries are not counted against it — resource exhaustion is
	// not an error verdict.
	MaxRequeues int

	nextID   uint64
	resubmit func(*block.Request) sim.Duration
	// splitScratch backs SplitAll's return value between calls; every
	// stack iterates the result inline and never retains it, so the
	// unsplit fast path (the vast majority of requests) allocates
	// nothing.
	splitScratch []*block.Request
	// freeRetries recycles parked-submission records; retrySlab is the
	// chunk the free list refills from while the number of requests
	// parked at once grows.
	freeRetries []*retry
	retrySlab   []retry

	// Requeues counts submissions that hit a full NSQ at least once.
	Requeues uint64
	// RetryAttempts counts individual full-NSQ retry attempts (one
	// submission can retry several times before the queue drains).
	RetryAttempts uint64
	// CancelRequeues counts device-cancelled commands resubmitted through
	// the recovery path.
	CancelRequeues uint64
	// TerminalFailures counts requests failed after exhausting MaxRequeues.
	TerminalFailures uint64
}

// ErrTerminal marks a request the host gave up on after MaxRequeues
// device cancellations.
var ErrTerminal = errors.New("stackbase: request cancelled too many times (terminal failure)")

// DefaultBase returns a Base with kernel-like defaults on env.
func DefaultBase(env Env) Base {
	return Base{
		Env:           env,
		MaxIOSize:     256 * 1024,
		RetryDelay:    10 * sim.Microsecond,
		RetryMaxDelay: 320 * sim.Microsecond,
		RequeueCost:   500 * sim.Nanosecond,
		MaxRequeues:   4,
	}
}

// RecoveryStats is the comparable snapshot of the Base's host-side retry
// and recovery counters, surfaced by harness reports.
type RecoveryStats struct {
	Requeues         uint64
	RetryAttempts    uint64
	CancelRequeues   uint64
	TerminalFailures uint64
}

// RecoveryStats snapshots the retry/recovery counters.
func (b *Base) RecoveryStats() RecoveryStats {
	return RecoveryStats{
		Requeues:         b.Requeues,
		RetryAttempts:    b.RetryAttempts,
		CancelRequeues:   b.CancelRequeues,
		TerminalFailures: b.TerminalFailures,
	}
}

// AttachRecovery wires the host side of device error recovery: resubmit
// (normally the stack's own Submit) re-routes requests the device
// cancelled during timeout/abort/reset handling, after a capped
// exponential backoff keyed to how often the request has been cancelled.
// Every stack constructor calls this; without it a cancelled request
// completes immediately with nvme.ErrCancelled.
func (b *Base) AttachRecovery(resubmit func(*block.Request) sim.Duration) {
	b.resubmit = resubmit
	b.Dev.SetCancelHandler(b.handleCancel)
}

// NextID allocates a request ID for split children.
func (b *Base) NextID() uint64 {
	b.nextID++
	return b.nextID
}

// SplitAll applies block-layer splitting to rq. The returned slice is
// valid until the next SplitAll call on this Base — iterate it, don't
// keep it.
//
//ddvet:hotpath
func (b *Base) SplitAll(rq *block.Request) []*block.Request {
	b.splitScratch = b.splitScratch[:0]
	if b.MaxIOSize <= 0 {
		b.splitScratch = append(b.splitScratch, rq)
		return b.splitScratch
	}
	b.splitScratch = rq.SplitInto(b.splitScratch, b.MaxIOSize, b.NextID)
	return b.splitScratch
}

// backoff returns the delay before retry attempt n (0-based): RetryDelay
// doubled per attempt, capped at RetryMaxDelay.
func (b *Base) backoff(attempt int) sim.Duration {
	d := b.RetryDelay
	if d <= 0 {
		d = 10 * sim.Microsecond
	}
	ceil := b.RetryMaxDelay
	for i := 0; i < attempt; i++ {
		d *= 2
		if ceil > 0 && d >= ceil {
			return ceil
		}
	}
	return d
}

// EnqueueOrRetry tries to place rq on NSQ nsq. On success it reports
// accepted=true and the submission overhead (lock wait + hold). When the
// NSQ is full it schedules a retry on the tenant's core with capped
// exponential backoff (RetryDelay doubling up to RetryMaxDelay), reports
// accepted=false, and returns the requeue bookkeeping cost; the retry
// repeats until the queue drains — resource exhaustion never fails a
// request. Retried submissions always ring the doorbell — a requeued
// request has waited long enough that batching it further could live-lock
// a full queue of unannounced entries.
//
//ddvet:hotpath
func (b *Base) EnqueueOrRetry(rq *block.Request, nsq int, ring bool) (accepted bool, overhead sim.Duration) {
	ok, overhead := b.Dev.Enqueue(b.Eng.Now(), nsq, rq, ring)
	if ok {
		return true, overhead
	}
	b.Requeues++
	r := b.allocRetry(rq, retryEnqueue)
	r.nsq = nsq
	b.scheduleRetry(r)
	return false, b.RequeueCost
}

// retry is one parked submission: a request waiting out its backoff
// before it is tried again on its tenant's core. A record lives from the
// first full-NSQ refusal (or device cancel) until the attempt that places
// the request, and carries the request through the engine and the core as
// the Arg of package-level continuations, so a retry storm of millions of
// attempts allocates nothing once the pool has grown to the number of
// requests parked at once.
type retry struct {
	b  *Base
	rq *block.Request
	// run is the attempt made on the core: retryEnqueue re-enqueues on
	// nsq, retryResubmit routes a device-cancelled request through the
	// stack again.
	run     func(any) sim.Duration
	nsq     int
	attempt int
	// core is the tenant's core when the attempt was scheduled: a tenant
	// that migrates meanwhile still retries where it was parked.
	core int
	// live guards the free list against a double release.
	live bool
}

// retryChunk is the retry-record carve granularity.
const retryChunk = 32

// allocRetry takes a record from the free list, carving a new chunk when
// it is empty.
func (b *Base) allocRetry(rq *block.Request, run func(any) sim.Duration) *retry {
	var r *retry
	if n := len(b.freeRetries); n > 0 {
		r = b.freeRetries[n-1]
		b.freeRetries = b.freeRetries[:n-1]
	} else {
		if len(b.retrySlab) == 0 {
			b.retrySlab = make([]retry, retryChunk)
		}
		r = &b.retrySlab[0]
		b.retrySlab = b.retrySlab[1:]
	}
	*r = retry{b: b, rq: rq, run: run, live: true}
	return r
}

// freeRetry returns a record to the free list. It drops the request
// reference: a split child is not pooled by any job, so a stale pointer
// here would keep it reachable.
func (b *Base) freeRetry(r *retry) {
	if !r.live {
		panic("stackbase: retry record freed twice")
	}
	r.live = false
	r.rq = nil
	b.freeRetries = append(b.freeRetries, r)
}

// scheduleRetry counts one full-NSQ retry attempt and parks r for its
// backoff.
func (b *Base) scheduleRetry(r *retry) {
	r.core = tenantCore(r.rq)
	b.RetryAttempts++
	b.Eng.AfterArg(b.backoff(r.attempt), retryWake, r)
}

// retryWake ends a record's backoff: the attempt is queued on the core
// the request was parked on, charged RequeueCost.
//
//ddvet:hotpath
func retryWake(arg any) {
	r := arg.(*retry)
	b := r.b
	b.Pool.Core(r.core).Submit(cpus.Work{
		Cost:  b.RequeueCost,
		Owner: tenantOwner(r.rq),
		ArgFn: r.run,
		Arg:   r,
	})
}

// retryEnqueue is one full-NSQ retry attempt: on success it releases the
// record and returns the submission overhead, otherwise it parks the
// record again with the next backoff step.
//
//ddvet:hotpath
func retryEnqueue(arg any) sim.Duration {
	r := arg.(*retry)
	b := r.b
	ok, overhead := b.Dev.Enqueue(b.Eng.Now(), r.nsq, r.rq, true)
	if ok {
		b.freeRetry(r)
		return overhead
	}
	r.attempt++
	b.scheduleRetry(r)
	return 0
}

// retryResubmit sends a device-cancelled request through the stack again.
//
//ddvet:hotpath
func retryResubmit(arg any) sim.Duration {
	r := arg.(*retry)
	b, rq := r.b, r.rq
	b.freeRetry(r)
	return b.resubmit(rq)
}

// handleCancel is the device's cancel hook (nvme.SetCancelHandler): the
// request lost its command to a timeout abort or a controller reset.
// Resubmit it through the stack after a capped exponential backoff, or —
// once it has been cancelled more than MaxRequeues times — fail it
// terminally so it still completes exactly once.
//
//ddvet:hotpath
func (b *Base) handleCancel(rq *block.Request) {
	rq.Requeues++
	limit := b.MaxRequeues
	if limit <= 0 {
		limit = 4
	}
	if rq.Requeues > limit || b.resubmit == nil {
		b.TerminalFailures++
		if rq.Err == nil {
			rq.Err = ErrTerminal
		}
		rq.Complete(b.Eng.Now())
		return
	}
	b.CancelRequeues++
	rq.Err = nil // a resubmission is a fresh attempt
	r := b.allocRetry(rq, retryResubmit)
	r.core = tenantCore(rq)
	b.Eng.AfterArg(b.backoff(rq.Requeues-1), retryWake, r)
}

func tenantCore(rq *block.Request) int {
	if rq.Tenant != nil {
		return rq.Tenant.Core
	}
	return 0
}

func tenantOwner(rq *block.Request) int {
	if rq.Tenant != nil {
		return rq.Tenant.ID
	}
	return cpus.OwnerNone
}
