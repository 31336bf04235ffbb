// Package block defines the types shared by every storage stack in the
// reproduction: I/O requests with their SLA-relevant flags, tenants with
// ionice classes, block-layer I/O splitting, and the Stack interface that
// vanilla blk-mq, blk-switch, static partitioning, and Daredevil all
// implement against the same simulated NVMe device.
package block

import (
	"fmt"

	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

// OpKind distinguishes reads from writes.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// String names the operation.
func (o OpKind) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Class is a tenant's ionice scheduling class, the user-declared SLA signal
// troute reads (§5.2): real-time ionice marks latency-sensitive L-tenants,
// best-effort marks throughput-oriented T-tenants.
type Class uint8

// Ionice classes.
const (
	// ClassRT (real-time ionice) marks L-tenants.
	ClassRT Class = iota
	// ClassBE (best-effort ionice) marks T-tenants.
	ClassBE
)

// String names the class the way the paper does.
func (c Class) String() string {
	if c == ClassRT {
		return "L"
	}
	return "T"
}

// Prio is the request/NQ logical priority derived from classes.
type Prio uint8

// Priorities.
const (
	PrioHigh Prio = iota
	PrioLow
)

// String names the priority.
func (p Prio) String() string {
	if p == PrioHigh {
		return "high"
	}
	return "low"
}

// PrioOf maps an ionice class to its base priority.
func PrioOf(c Class) Prio {
	if c == ClassRT {
		return PrioHigh
	}
	return PrioLow
}

// Flags carry the request attributes the kernel block layer exposes
// (REQ_SYNC, REQ_META); troute uses them to spot outlier L-requests issued
// by T-tenants (§5.2, §6).
type Flags uint8

// Request flags.
const (
	// FlagSync marks synchronous requests (REQ_SYNC).
	FlagSync Flags = 1 << iota
	// FlagMeta marks filesystem metadata requests (REQ_META).
	FlagMeta
	// FlagDiscard marks deallocation requests (REQ_OP_DISCARD): the range
	// carries no data and becomes an NVMe Deallocate the FTL unmaps.
	FlagDiscard
)

// Sync reports whether FlagSync is set.
func (f Flags) Sync() bool { return f&FlagSync != 0 }

// Meta reports whether FlagMeta is set.
func (f Flags) Meta() bool { return f&FlagMeta != 0 }

// Discard reports whether FlagDiscard is set.
func (f Flags) Discard() bool { return f&FlagDiscard != 0 }

// Outlier reports whether the flags mark an outlier L-request when issued
// from a T-tenant (synchronous or metadata, i.e. REQ_HIPRIO-worthy).
func (f Flags) Outlier() bool { return f.Sync() || f.Meta() }

// Tenant is a process requiring I/O services — an FIO job, an application
// thread, a container. The kernel-side state the stacks care about lives
// here; workload generators own the behavior.
type Tenant struct {
	ID    int
	Name  string
	Class Class
	// Core is the CPU the tenant currently runs on (task_struct affinity).
	Core int
	// Namespace is the NVMe namespace the tenant targets.
	Namespace int

	// Stack-private per-tenant state (troute's default/outlier NSQ
	// assignments, blk-switch steering state). Owned by whichever stack
	// the tenant is registered with.
	StackState any
}

// String renders a compact identity.
func (t *Tenant) String() string {
	return fmt.Sprintf("%s#%d(%s,core%d,ns%d)", t.Name, t.ID, t.Class, t.Core, t.Namespace)
}

// Request is one block I/O request flowing through a stack.
type Request struct {
	ID     uint64
	Tenant *Tenant
	// Namespace the request targets (usually the tenant's).
	Namespace int
	// Offset is the byte offset within the namespace.
	Offset int64
	// Size is the transfer length in bytes.
	Size  int64
	Op    OpKind
	Flags Flags

	// Prio is assigned by the stack during submission.
	Prio Prio

	// Timestamps along the I/O path (virtual time).
	IssueTime    sim.Time // tenant issued the syscall
	CQEPostTime  sim.Time // controller posted the CQE
	CompleteTime sim.Time // completion delivered to the tenant

	// LockWait is the submission-side NSQ lock contention endured (§7.5).
	LockWait sim.Duration
	// CrossCore reports that completion was delivered via an IRQ on a core
	// other than the submitting one (§5.1 cross-core completion).
	CrossCore bool
	// NSQ is the submission queue the request was routed to (-1 before
	// routing).
	NSQ int

	// Err is non-nil when the device exhausted its retries on a media
	// error, or when host recovery gave up on the request; the request
	// still completes exactly once.
	Err error
	// Retries counts device-internal re-executions due to media errors.
	Retries int
	// Requeues counts host-side resubmissions after the device cancelled
	// the command during timeout/abort/reset recovery; the stack fails the
	// request terminally once it exceeds the stack's cap (stackbase).
	Requeues int

	// OnComplete is invoked exactly once when the request completes (after
	// ISR processing). Set by the workload; stacks must preserve it.
	OnComplete func(*Request)

	// Span is the observability lifecycle record, nil unless tracing is
	// enabled. Layers stamp it in place with a nil guard, so the disabled
	// path is one pointer compare.
	Span *obs.Span

	// split bookkeeping
	parent    *Request
	remaining int
}

// Latency reports the end-to-end latency the tenant observed.
func (r *Request) Latency() sim.Duration { return r.CompleteTime.Sub(r.IssueTime) }

// CompletionDelay reports the time from CQE posting to delivery at the
// tenant — the completion-side overhead component of §7.5.
func (r *Request) CompletionDelay() sim.Duration { return r.CompleteTime.Sub(r.CQEPostTime) }

// Complete finalizes the request at instant now and fires OnComplete. For a
// split child it instead notifies the parent, which completes when the last
// child does.
func (r *Request) Complete(now sim.Time) {
	r.CompleteTime = now
	if sp := r.Span; sp != nil {
		sp.Complete = now
		sp.LockWait = r.LockWait
		sp.CrossCore = r.CrossCore
		sp.Failed = r.Err != nil
		sp.Retries = r.Retries
		sp.Requeues = r.Requeues
		sp.End()
	}
	if r.parent != nil {
		p := r.parent
		p.remaining--
		if p.LockWait < r.LockWait {
			p.LockWait = r.LockWait // worst child dominates observed wait
		}
		if r.CrossCore {
			p.CrossCore = true
		}
		if r.Err != nil && p.Err == nil {
			p.Err = r.Err
		}
		if p.remaining == 0 {
			p.Complete(now)
		}
		return
	}
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
}

// Split divides the request into children of at most maxBytes each,
// mirroring the kernel's I/O splitting (§2.3). The parent completes when
// all children have. Requests at or below the limit return themselves.
func (r *Request) Split(maxBytes int64, nextID func() uint64) []*Request {
	return r.SplitInto(nil, maxBytes, nextID)
}

// SplitInto is Split appending into a caller-owned slice (usually a
// reusable scratch), so the common unsplit case builds no one-element
// slice per request. The returned slice aliases dst's backing array.
//
//ddvet:hotpath
func (r *Request) SplitInto(dst []*Request, maxBytes int64, nextID func() uint64) []*Request {
	if maxBytes <= 0 {
		panic("block: non-positive split size")
	}
	if r.Size <= maxBytes {
		return append(dst, r)
	}
	children := dst
	for off := int64(0); off < r.Size; off += maxBytes {
		sz := r.Size - off
		if sz > maxBytes {
			sz = maxBytes
		}
		c := &Request{
			ID:        nextID(),
			Tenant:    r.Tenant,
			Namespace: r.Namespace,
			Offset:    r.Offset + off,
			Size:      sz,
			Op:        r.Op,
			Flags:     r.Flags,
			Prio:      r.Prio,
			IssueTime: r.IssueTime,
			NSQ:       -1,
			parent:    r,
		}
		c.Span = r.Span.Child(c.ID)
		if c.Span != nil {
			c.Span.Size = sz
		}
		children = append(children, c) //lint:ddvet:allow hotpathalloc appends into the caller's reusable scratch, growth amortizes across requests
	}
	r.remaining = len(children) - len(dst)
	return children
}

// IsSplitChild reports whether the request is a child of a split.
func (r *Request) IsSplitChild() bool { return r.parent != nil }

// PendingChildren reports how many children have not yet completed.
func (r *Request) PendingChildren() int { return r.remaining }

// Stack is the storage-stack interface every implementation provides.
// Submit must be called from simulation context (an event on the tenant's
// core); completion is delivered via Request.OnComplete.
type Stack interface {
	// Name identifies the stack ("vanilla", "blk-switch", "static-part",
	// "daredevil", ...).
	Name() string
	// Register introduces a tenant before its first request; stacks
	// initialize per-tenant routing state here (e.g. troute's default NSQ).
	Register(t *Tenant)
	// Submit routes one request toward the device. It returns the extra
	// CPU time the submitting core must absorb beyond the nominal syscall
	// cost (routing work, NSQ lock waits); callers running inside a
	// cpus.Work return it as the work's extra busy time.
	Submit(rq *Request) sim.Duration
	// SetIonice updates a tenant's ionice class at runtime; stacks react
	// per their design (troute re-schedules the default NSQ, §5.2).
	SetIonice(t *Tenant, c Class)
	// MigrateTenant moves a tenant to another core (cross-core scheduling,
	// Fig. 13 interleaving).
	MigrateTenant(t *Tenant, core int)
}

// Factors is the paper's Table 1 design-factor vector.
type Factors struct {
	HardwareIndependence bool // Factor 1
	NQExploitation       bool // Factor 2
	CrossCoreAutonomy    bool // Factor 3 (no reliance on cross-core scheduling)
	MultiNamespace       bool // Factor 4
}

// FactorProvider is implemented by stacks that report their Table 1 row.
type FactorProvider interface {
	Factors() Factors
}
