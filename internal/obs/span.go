package obs

import (
	"fmt"
	"io"
	"text/tabwriter"

	"daredevil/internal/sim"
)

// Span is the per-request lifecycle record: one compact struct stamped in
// place by each layer as the request moves block split → stack NQ → NSQ
// entry → controller fetch → FTL/chip service → CQE post → IRQ-or-poll
// delivery → completion. Layers write fields directly (nil-guarded), so a
// disabled tracer costs one pointer compare per hook.
//
// Identity fields are scalars and strings rather than block types: obs sits
// below block in the import graph.
type Span struct {
	// Seq is the tracer-global span sequence (request IDs are per-job and
	// collide across jobs).
	Seq uint64
	// ReqID is the job-local request ID.
	ReqID uint64
	// Parent is the Seq of the parent span for split children, 0 for roots.
	Parent uint64

	Tenant   string
	TenantID int
	Class    string
	Op       string
	Size     int64
	Prio     int

	// Core is the submitting core; DCore the core the completion was
	// delivered on.
	Core  int
	DCore int
	// NSQ is the NVMe submission queue the command landed on; Chip the
	// flash chip that serviced it. -1 until known.
	NSQ  int
	Chip int
	// NSQDepth is the queue length observed at NSQ entry (HOL evidence).
	NSQDepth int

	// Lifecycle stamps, in virtual time. Zero means "stage not reached".
	Issue    sim.Time // request created by the workload
	Submit   sim.Time // accepted into the NSQ
	Fetch    sim.Time // fetched by the controller
	Service  sim.Time // FTL/chip service done (before CQE post cost)
	CQEPost  sim.Time // CQE posted to the completion queue
	Deliver  sim.Time // IRQ fired or poll batch reaped
	Complete sim.Time // host-side completion ran

	LockWait sim.Duration
	// FGGCs counts foreground GC stalls this command absorbed.
	FGGCs uint64
	// GCWait is the die time foreground GC inserted ahead of this command's
	// service (the profiler's GC-attributed layer).
	GCWait sim.Duration
	// FetchCost is the priced controller fetch span (fetch-engine cost plus
	// per-page transfer) ending at the Fetch stamp; Submit→Fetch minus
	// FetchCost is pure NSQ queue wait.
	FetchCost sim.Duration

	Polled    bool
	CrossCore bool
	Failed    bool
	Retries   int
	Requeues  int

	// tr files the span with the tracer on End; o recycles pooled spans and
	// feeds the profiler sink. A tracer-owned span carries both; a pooled
	// (profile-only) span carries only o.
	tr   *Tracer
	o    *Observer
	done bool
}

// Child allocates a span for a split child request, inheriting identity
// from the parent. Returns nil when the parent is untraced or the budget
// is exhausted.
func (s *Span) Child(reqID uint64) *Span {
	if s == nil {
		return nil
	}
	if s.o == nil {
		return nil
	}
	// Route through the observer so a pooled parent gets a pooled child
	// and a traced parent a traced one (budget permitting).
	c := s.o.StartSpan()
	if c == nil {
		return nil
	}
	c.ReqID = reqID
	c.Parent = s.Seq
	c.Tenant = s.Tenant
	c.TenantID = s.TenantID
	c.Class = s.Class
	c.Op = s.Op
	c.Prio = s.Prio
	c.Core = s.Core
	c.Issue = s.Issue
	return c
}

// End marks the span complete: it feeds the profiler sink (when armed),
// files the span with the tracer, and recycles pooled spans onto the
// observer's free list. Completion order is engine event order, so both the
// done list and the profiler's aggregation order are deterministic. Safe on
// nil and idempotent.
func (s *Span) End() {
	if s == nil || s.done || (s.tr == nil && s.o == nil) {
		return
	}
	s.done = true
	if s.o != nil && s.o.sink != nil {
		s.o.sink.ConsumeSpan(s)
	}
	if s.tr != nil {
		s.tr.done = append(s.tr.done, s)
		return
	}
	// Pooled span: the sink must not retain the pointer past ConsumeSpan.
	s.o.spanFree = append(s.o.spanFree, s)
}

// Layer is one slot of the latency taxonomy: the single split of a
// request's time that the profiler, the trace table and the trace timeline
// all read. The order below is the canonical export order.
type Layer int

const (
	// LayerSubmit is issue → NSQ entry: block split, stack routing, NQ/NSQ
	// lock waits and submission cost.
	LayerSubmit Layer = iota
	// LayerQueueWait is NSQ entry → controller fetch, minus the priced
	// fetch window: pure head-of-line blocking in the submission queue.
	LayerQueueWait
	// LayerFetch is the controller's priced command fetch (fetch engine
	// cost plus per-page transfer).
	LayerFetch
	// LayerChip is FTL mapping plus flash service (die queue + cell time),
	// net of foreground-GC insertion.
	LayerChip
	// LayerGC is the die time foreground GC inserted ahead of this
	// command's service — the tail-latency villain of the paper's Figure 2.
	LayerGC
	// LayerCQE is chip service done → CQE visible (post cost, injected
	// completion delays).
	LayerCQE
	// LayerDelivery is CQE post → host completion: coalescing, IRQ or
	// poll reaping, softirq, cross-core hops.
	LayerDelivery

	// NumLayers is the taxonomy size; layer arrays and slices always hold
	// all NumLayers entries in the order above.
	NumLayers = int(LayerDelivery) + 1
)

var layerNames = [NumLayers]string{
	"submit", "queue_wait", "fetch", "chip", "gc", "cqe", "delivery",
}

// String names the layer as it appears in every export.
func (l Layer) String() string {
	if l < 0 || int(l) >= NumLayers {
		return "?"
	}
	return layerNames[l]
}

// LayerNames returns the canonical layer order.
func LayerNames() []string { return layerNames[:] }

// Layers splits the span's Total across the taxonomy. It walks the stamps
// Issue → Submit → Fetch → Service → CQEPost → Complete; the first stamp
// that is zero, earlier than the one before it, or later than Complete was
// not reached by the final attempt (a requeued or cancelled command keeps
// stale stamps), and all remaining time goes to the layer the request was
// in at that point. FetchCost is then split out of the queue window and
// GCWait out of the chip window, each clamped to its window. The layers
// therefore always sum to Total. Allocation-free: the profiler calls it on
// every completion.
func (s *Span) Layers() (l [NumLayers]sim.Duration) {
	if s.Total() == 0 {
		return l
	}
	// Each stamp closes the window of the layer the request was in. Once
	// a stamp is clamped to Complete every later window is empty.
	ends := [...]sim.Time{s.Submit, s.Fetch, s.Service, s.CQEPost, s.Complete}
	into := [len(ends)]Layer{LayerSubmit, LayerQueueWait, LayerChip, LayerCQE, LayerDelivery}
	prev := s.Issue
	for i, end := range ends {
		if end == 0 || end < prev || end > s.Complete {
			end = s.Complete
		}
		l[into[i]] = end.Sub(prev)
		prev = end
	}
	l[LayerFetch] = min(s.FetchCost, l[LayerQueueWait])
	l[LayerQueueWait] -= l[LayerFetch]
	l[LayerGC] = min(s.GCWait, l[LayerChip])
	l[LayerChip] -= l[LayerGC]
	return l
}

// Total is issue → completion, zero for a span that never completed.
func (s *Span) Total() sim.Duration {
	if s.Complete == 0 {
		return 0
	}
	return s.Complete.Sub(s.Issue)
}

// WriteTable renders completed spans as an aligned table, one row per span
// in completion order and one column per taxonomy layer.
func (t *Tracer) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "req\ttenant\tclass\top\tsize\tNSQ\tchip#")
	for _, name := range layerNames {
		fmt.Fprintf(tw, "\t%s", name)
	}
	fmt.Fprintln(tw, "\ttotal\txcore")
	for _, s := range t.done {
		mode := ""
		if s.CrossCore {
			mode = "x"
		}
		if s.Polled {
			mode += "p"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\t%d",
			s.ReqID, s.Tenant, s.Class, s.Op, s.Size, s.NSQ, s.Chip)
		for _, d := range s.Layers() {
			fmt.Fprintf(tw, "\t%s", d)
		}
		fmt.Fprintf(tw, "\t%s\t%s\n", s.Total(), mode)
	}
	return tw.Flush()
}
