package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"daredevil/internal/sim"
)

// Chrome trace-event track layout: one process per machine layer, one
// thread per instance within it.
const (
	pidCores    = 1 // submit + delivery slices, one thread per host core
	pidNSQ      = 2 // NSQ residency, one thread per submission queue
	pidChips    = 3 // media service, one thread per flash chip
	pidGC       = 4 // background GC rounds, one thread per die
	pidRecovery = 5 // recovery-ladder instants
)

// GCRange is one background garbage-collection round on a die, recorded by
// the FTL for the timeline.
type GCRange struct {
	Die        int
	Start, End sim.Time
	PagesMoved int
}

// Instant is a point event on the recovery track (timeout, abort, reset).
type Instant struct {
	Name string
	At   sim.Time
	Arg  string
}

// Tracer collects request spans and device timeline events, bounded by the
// configured limit. Spans are filed in completion order and device events
// in record order — both are engine event order, hence deterministic.
type Tracer struct {
	limit   int
	started int
	dropped int

	done     []*Span
	gc       []GCRange
	instants []Instant
}

func newTracer(limit int) *Tracer {
	return &Tracer{limit: limit}
}

func (t *Tracer) startSpan() *Span {
	if t.started >= t.limit {
		t.dropped++
		return nil
	}
	t.started++
	return &Span{Seq: uint64(t.started), NSQ: -1, Chip: -1, Core: -1, DCore: -1, tr: t}
}

// Spans returns the completed spans in completion order.
func (t *Tracer) Spans() []*Span { return t.done }

// Started reports how many spans were handed out; Dropped how many requests
// arrived after the budget was exhausted.
func (t *Tracer) Started() int { return t.started }
func (t *Tracer) Dropped() int { return t.dropped }

// RecordGC files a finished GC round for the device timeline. Safe on nil.
// Bounded by the span limit so a GC storm cannot grow the trace without
// bound.
func (t *Tracer) RecordGC(die int, start, end sim.Time, pagesMoved int) {
	if t == nil || len(t.gc) >= t.limit {
		return
	}
	t.gc = append(t.gc, GCRange{Die: die, Start: start, End: end, PagesMoved: pagesMoved})
}

// RecordInstant files a recovery-ladder point event (timeout/abort/reset).
// Safe on nil.
func (t *Tracer) RecordInstant(name string, at sim.Time, arg string) {
	if t == nil || len(t.instants) >= t.limit {
		return
	}
	t.instants = append(t.instants, Instant{Name: name, At: at, Arg: arg})
}

// Instants returns the recorded recovery instants in record order.
func (t *Tracer) Instants() []Instant { return t.instants }

// GCRanges returns the recorded GC rounds in record order.
func (t *Tracer) GCRanges() []GCRange { return t.gc }

// usec renders a virtual timestamp as microseconds with nanosecond
// precision, the unit Chrome trace events use.
func usec(ts sim.Time) string {
	n := int64(ts)
	return fmt.Sprintf("%d.%03d", n/1000, n%1000)
}

func usecDur(d sim.Duration) string {
	n := int64(d)
	return fmt.Sprintf("%d.%03d", n/1000, n%1000)
}

// jsonEmitter writes trace events with deterministic field order and comma
// placement.
type jsonEmitter struct {
	w     *bufio.Writer
	first bool
}

func (e *jsonEmitter) event(body string) {
	if !e.first {
		e.w.WriteString(",\n")
	}
	e.first = false
	e.w.WriteString(body)
}

// WriteJSON emits the collected trace as Chrome trace-event JSON
// ({"traceEvents":[...]}), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Tracks: per-core submit/deliver slices, per-NSQ
// residency, per-chip service, per-die GC rounds, and recovery instants.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	e := &jsonEmitter{w: bw, first: true}

	e.event(meta("process_name", pidCores, 0, "cores"))
	e.event(meta("process_name", pidNSQ, 0, "nsq"))
	e.event(meta("process_name", pidChips, 0, "chips"))
	e.event(meta("process_name", pidGC, 0, "gc"))
	e.event(meta("process_name", pidRecovery, 0, "recovery"))

	// Thread-name metadata for every track instance actually used, in
	// ascending id order per process.
	for _, tid := range usedTids(t, pidCores) {
		e.event(meta("thread_name", pidCores, tid, fmt.Sprintf("core %d", tid)))
	}
	for _, tid := range usedTids(t, pidNSQ) {
		e.event(meta("thread_name", pidNSQ, tid, fmt.Sprintf("nsq %d", tid)))
	}
	for _, tid := range usedTids(t, pidChips) {
		e.event(meta("thread_name", pidChips, tid, fmt.Sprintf("chip %d", tid)))
	}
	for _, tid := range usedTids(t, pidGC) {
		e.event(meta("thread_name", pidGC, tid, fmt.Sprintf("die %d", tid)))
	}
	if len(t.instants) > 0 {
		e.event(meta("thread_name", pidRecovery, 0, "ladder"))
	}

	for _, s := range t.done {
		id := spanID(s)
		for i, sl := range spanSlices(s) {
			if !sl.drawn() {
				continue
			}
			var args string
			switch i {
			case sliceSubmit:
				args = fmt.Sprintf("%s,\"lock_wait_us\":%s", id, usecDur(s.LockWait))
			case sliceQueued:
				args = fmt.Sprintf("%s,\"depth\":%d", id, s.NSQDepth)
			case sliceChip:
				args = fmt.Sprintf("%s,\"fg_gcs\":%d", id, s.FGGCs)
			case sliceDeliver:
				mode := "irq"
				if s.Polled {
					mode = "poll"
				}
				args = fmt.Sprintf("%s,\"mode\":%s,\"xcore\":%t", id, strconv.Quote(mode), s.CrossCore)
			}
			e.event(slice(sl.name, sl.pid, sl.tid, sl.start, sl.dur, args))
		}
	}

	for _, g := range t.gc {
		if g.End <= g.Start {
			continue
		}
		e.event(slice("gc", pidGC, g.Die, g.Start, g.End.Sub(g.Start),
			fmt.Sprintf("\"pages_moved\":%d", g.PagesMoved)))
	}

	for _, in := range t.instants {
		arg := ""
		if in.Arg != "" {
			arg = fmt.Sprintf(",\"args\":{\"detail\":%s}", strconv.Quote(in.Arg))
		}
		e.event(fmt.Sprintf("{\"name\":%s,\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,\"tid\":0,\"ts\":%s%s}",
			strconv.Quote(in.Name), pidRecovery, usec(in.At), arg))
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// Per-span slices on the timeline, in spanSlices order.
const (
	sliceSubmit = iota
	sliceQueued
	sliceChip
	sliceDeliver
	numSlices
)

// spanSlice is one span's slice on a timeline track.
type spanSlice struct {
	name     string
	pid, tid int
	start    sim.Time
	dur      sim.Duration
}

// drawn reports whether the slice appears on the timeline: it has length
// and its track is known.
func (sl spanSlice) drawn() bool { return sl.dur > 0 && sl.tid >= 0 }

// spanSlices derives a span's timeline slices from its Layers, so the
// timeline and the profile agree on every request: submit on the issuing
// core, queue wait plus fetch on the NSQ, chip plus GC on the flash chip,
// and delivery on the completing core.
func spanSlices(s *Span) [numSlices]spanSlice {
	l := s.Layers()
	return [numSlices]spanSlice{
		sliceSubmit:  {"submit", pidCores, s.Core, s.Issue, l[LayerSubmit]},
		sliceQueued:  {"queued", pidNSQ, s.NSQ, s.Submit, l[LayerQueueWait] + l[LayerFetch]},
		sliceChip:    {s.Op, pidChips, s.Chip, s.Fetch, l[LayerChip] + l[LayerGC]},
		sliceDeliver: {"deliver", pidCores, s.DCore, s.CQEPost, l[LayerDelivery]},
	}
}

func spanID(s *Span) string {
	return fmt.Sprintf("\"span\":%d,\"req\":%d,\"tenant\":%s,\"size\":%d",
		s.Seq, s.ReqID, strconv.Quote(s.Tenant), s.Size)
}

func meta(kind string, pid, tid int, name string) string {
	return fmt.Sprintf("{\"name\":%s,\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}",
		strconv.Quote(kind), pid, tid, strconv.Quote(name))
}

func slice(name string, pid, tid int, start sim.Time, dur sim.Duration, args string) string {
	return fmt.Sprintf("{\"name\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{%s}}",
		strconv.Quote(name), pid, tid, usec(start), usecDur(dur), args)
}

// usedTids returns the sorted distinct track ids a process uses. Linear
// insertion keeps this map-free (deterministic iteration) and the id sets
// are small (cores, queues, chips, dies).
func usedTids(t *Tracer, pid int) []int {
	var ids []int
	add := func(id int) {
		if id < 0 {
			return
		}
		for i, v := range ids {
			if v == id {
				return
			}
			if v > id {
				ids = append(ids, 0)
				copy(ids[i+1:], ids[i:])
				ids[i] = id
				return
			}
		}
		ids = append(ids, id)
	}
	switch pid {
	case pidCores, pidNSQ, pidChips:
		for _, s := range t.done {
			for _, sl := range spanSlices(s) {
				if sl.pid == pid && sl.drawn() {
					add(sl.tid)
				}
			}
		}
	case pidGC:
		for _, g := range t.gc {
			if g.End > g.Start {
				add(g.Die)
			}
		}
	}
	return ids
}
