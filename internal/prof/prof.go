// Package prof is the streaming virtual-time profiler: it consumes every
// completed request span (via the obs.SpanSink seam), reads the span's
// split across the obs layer taxonomy (obs.Span.Layers), and aggregates per
// (stack, tenant-class, layer) mergeable quantile digests. The paper's
// opening question — which layer of the storage stack does each
// microsecond of a request go to, and how does the split shift under
// multi-tenancy — becomes a always-on artifact of every run instead of a
// bounded trace dump.
//
// Determinism rules:
//   - Spans arrive in engine event order (obs.Span.End), so per-cell
//     aggregation order is fixed for a given seed.
//   - All aggregate state is integer (stats.Digest); snapshot groups are
//     sorted by (stack, class) and layers hold a fixed order, so a cell's
//     Profile serializes canonically.
//   - Profile merging is bucket-wise integer addition over the fixed digest
//     layout — commutative and associative — so a grid's merged fleet
//     profile is byte-identical at any -j parallelism.
//
// The profiler is a sim-ordered package (no wall clock, no sync, no map
// iteration) and every hook is nil-safe and allocation-free on the hot
// path, enforced by ddvet obscost and TestSteadyStateDevicePathAllocFree.
package prof

import (
	"sort"

	"daredevil/internal/obs"
	"daredevil/internal/stats"
)

// classAgg is the live aggregate for one tenant class: a digest per layer
// plus a total-latency digest. Classes are few (the paper's L and T), so a
// linear scan beats any map — and keeps iteration order deterministic.
type classAgg struct {
	class    string
	requests uint64
	failed   uint64
	total    stats.Digest
	layers   [obs.NumLayers]stats.Digest
}

// Profiler is the per-cell streaming aggregator. It implements
// obs.SpanSink; arm it with Observer.EnableProfile. Not safe for
// concurrent use — like the engine it observes, one Profiler belongs to
// one cell.
type Profiler struct {
	stack   string
	classes []*classAgg
}

// New builds a profiler labeling its aggregates with the cell's stack kind.
func New(stack string) *Profiler {
	return &Profiler{stack: stack}
}

// Stack reports the stack label the profiler was built with.
func (p *Profiler) Stack() string {
	if p == nil {
		return ""
	}
	return p.stack
}

// Reset discards everything aggregated so far; the harness calls it at the
// warmup boundary so profiles cover exactly the measurement window.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	p.classes = nil
}

// Requests reports the number of spans consumed so far.
func (p *Profiler) Requests() uint64 {
	var n uint64
	for _, c := range p.classes {
		n += c.requests
	}
	return n
}

// ConsumeSpan folds one completed span into the per-class layer digests.
// Safe on nil profiler and nil span (it is an obs hot-path hook; ddvet
// obscost lists it as nil-safe). The span must not be retained: tracer-less
// spans are recycled by the caller immediately after this returns.
func (p *Profiler) ConsumeSpan(sp *obs.Span) {
	if p == nil || sp == nil || sp.Complete == 0 {
		return
	}
	if sp.Submit == 0 && !sp.Failed {
		// Split-parent spans never enter the device themselves; their
		// children carry the device ladder and are consumed individually.
		// Counting the parent too would double-count the request's time.
		return
	}
	c := p.classFor(sp.Class)
	c.requests++
	if sp.Failed {
		c.failed++
	}
	c.total.Record(sp.Total())
	for l, d := range sp.Layers() {
		c.layers[l].Record(d)
	}
}

// classFor finds or appends the aggregate for a class label. First-seen
// order is engine event order (deterministic); exports sort anyway.
func (p *Profiler) classFor(class string) *classAgg {
	for _, c := range p.classes {
		if c.class == class {
			return c
		}
	}
	c := &classAgg{class: class}
	p.classes = append(p.classes, c)
	return c
}

// LayerStat is one layer's digest in a snapshot group.
type LayerStat struct {
	Layer string `json:"layer"`
	stats.DigestDump
}

// Group is the aggregate for one (stack, tenant-class) pair: request
// counts, the total-latency digest, and one digest per taxonomy layer
// (always obs.NumLayers entries, canonical order).
type Group struct {
	Stack    string           `json:"stack"`
	Class    string           `json:"class"`
	Requests uint64           `json:"requests"`
	Failed   uint64           `json:"failed,omitempty"`
	Total    stats.DigestDump `json:"total"`
	Layers   []LayerStat      `json:"layers"`
}

// key orders groups canonically.
func (g Group) key() string { return g.Stack + "\x00" + g.Class }

// Profile is a snapshot of one or more profilers: plain mergeable data,
// canonically ordered, safe to serialize and cache. The zero value is an
// empty profile.
type Profile struct {
	Groups []Group `json:"groups"`
}

// Profile snapshots the live aggregates into canonical (sorted) form. The
// profiler keeps aggregating afterwards; snapshots are independent copies.
func (p *Profiler) Profile() Profile {
	if p == nil {
		return Profile{}
	}
	groups := make([]Group, 0, len(p.classes))
	for _, c := range p.classes {
		g := Group{
			Stack:    p.stack,
			Class:    c.class,
			Requests: c.requests,
			Failed:   c.failed,
			Total:    c.total.Dump(),
			Layers:   make([]LayerStat, obs.NumLayers),
		}
		for l, name := range obs.LayerNames() {
			g.Layers[l] = LayerStat{Layer: name, DigestDump: c.layers[l].Dump()}
		}
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key() < groups[j].key() })
	return Profile{Groups: groups}
}

// Merge combines two profiles into a new one, leaving the inputs
// untouched. Groups with equal (stack, class) merge field-wise; the digest
// merges are commutative and associative, so any merge tree over the same
// cell set yields the same bytes — the grid runner relies on this for -j
// independence.
func Merge(a, b Profile) Profile {
	out := Profile{Groups: make([]Group, 0, len(a.Groups)+len(b.Groups))}
	i, j := 0, 0
	for i < len(a.Groups) && j < len(b.Groups) {
		ga, gb := a.Groups[i], b.Groups[j]
		switch {
		case ga.key() < gb.key():
			out.Groups = append(out.Groups, cloneGroup(ga))
			i++
		case ga.key() > gb.key():
			out.Groups = append(out.Groups, cloneGroup(gb))
			j++
		default:
			out.Groups = append(out.Groups, mergeGroup(ga, gb))
			i++
			j++
		}
	}
	for ; i < len(a.Groups); i++ {
		out.Groups = append(out.Groups, cloneGroup(a.Groups[i]))
	}
	for ; j < len(b.Groups); j++ {
		out.Groups = append(out.Groups, cloneGroup(b.Groups[j]))
	}
	return out
}

// MergeAll folds any number of profiles; the result is independent of
// argument order.
func MergeAll(ps ...Profile) Profile {
	var out Profile
	for _, p := range ps {
		out = Merge(out, p)
	}
	return out
}

func mergeGroup(a, b Group) Group {
	g := Group{
		Stack:    a.Stack,
		Class:    a.Class,
		Requests: a.Requests + b.Requests,
		Failed:   a.Failed + b.Failed,
		Total:    a.Total.Merge(b.Total),
		Layers:   make([]LayerStat, obs.NumLayers),
	}
	for l, name := range obs.LayerNames() {
		g.Layers[l] = LayerStat{Layer: name}
		var da, db stats.DigestDump
		if l < len(a.Layers) {
			da = a.Layers[l].DigestDump
		}
		if l < len(b.Layers) {
			db = b.Layers[l].DigestDump
		}
		g.Layers[l].DigestDump = da.Merge(db)
	}
	return g
}

func cloneGroup(g Group) Group {
	out := g
	out.Total = g.Total.Merge(stats.DigestDump{})
	out.Layers = make([]LayerStat, len(g.Layers))
	for i, l := range g.Layers {
		out.Layers[i] = LayerStat{Layer: l.Layer, DigestDump: l.DigestDump.Merge(stats.DigestDump{})}
	}
	return out
}

// Requests sums request counts across groups.
func (p Profile) Requests() uint64 {
	var n uint64
	for _, g := range p.Groups {
		n += g.Requests
	}
	return n
}
