package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"daredevil/internal/sim"
)

func TestRegistryOrderIsRegistrationOrder(t *testing.T) {
	var r Registry
	names := []string{"zeta", "alpha", "mid", "alpha2"}
	for _, n := range names {
		r.Register(n, func() float64 { return 0 })
	}
	got := r.Gauges()
	if len(got) != len(names) {
		t.Fatalf("got %d gauges, want %d", len(got), len(names))
	}
	for i, g := range got {
		if g.Name != names[i] {
			t.Fatalf("gauge %d = %q, want %q (iteration must follow registration order)", i, g.Name, names[i])
		}
	}
}

func TestTracerLimitDropsExcessSpans(t *testing.T) {
	o := New(sim.New())
	o.EnableTrace(3)
	var spans []*Span
	for i := 0; i < 5; i++ {
		spans = append(spans, o.StartSpan())
	}
	for i, sp := range spans {
		if i < 3 && sp == nil {
			t.Fatalf("span %d under the limit must be non-nil", i)
		}
		if i >= 3 && sp != nil {
			t.Fatalf("span %d over the limit must be nil", i)
		}
		sp.End() // nil-safe; over-limit spans are no-ops
	}
	tr := o.Tracer()
	if tr.Started() != 3 || tr.Dropped() != 2 || len(tr.Spans()) != 3 {
		t.Fatalf("started=%d dropped=%d done=%d, want 3/2/3", tr.Started(), tr.Dropped(), len(tr.Spans()))
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	o := New(sim.New())
	o.EnableTrace(10)
	sp := o.StartSpan()
	sp.End()
	sp.End()
	if got := len(o.Tracer().Spans()); got != 1 {
		t.Fatalf("double End produced %d spans, want 1", got)
	}
}

func TestSpanChildInheritsIdentity(t *testing.T) {
	o := New(sim.New())
	o.EnableTrace(10)
	sp := o.StartSpan()
	sp.ReqID = 7
	sp.Tenant = "db"
	sp.Class = "L"
	c := sp.Child(42)
	if c == nil {
		t.Fatal("child of a live span must be non-nil")
	}
	if c.ReqID != 42 || c.Tenant != "db" || c.Class != "L" || c.Parent != sp.Seq {
		t.Fatalf("child = %+v", c)
	}
	var nilSpan *Span
	if nilSpan.Child(1) != nil {
		t.Fatal("child of a nil span must be nil")
	}
}

// traceJSON runs a tiny synthetic trace through WriteJSON.
func traceJSON(t *testing.T) []byte {
	t.Helper()
	o := New(sim.New())
	o.EnableTrace(10)
	sp := o.StartSpan()
	sp.ReqID = 1
	sp.Tenant = "db"
	sp.Op = "read"
	sp.Core, sp.DCore, sp.NSQ, sp.Chip = 0, 1, 3, 2
	sp.Issue, sp.Submit, sp.Fetch = 1000, 2000, 3000
	sp.Service, sp.CQEPost, sp.Complete = 4000, 5000, 6000
	sp.End()
	tr := o.Tracer()
	tr.RecordGC(4, 2500, 3500, 17)
	tr.RecordInstant("timeout", 5500, "nsq 3")
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteJSONIsValidChromeTrace(t *testing.T) {
	out := traceJSON(t)
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev.Ph)
	}
	for _, want := range []string{"M", "X", "i"} {
		found := false
		for _, ph := range phases {
			if ph == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("no ph=%q event in trace (phases %v)", want, phases)
		}
	}
	// The one span must produce its four lifecycle slices plus the GC range.
	wantSlices := []string{"submit", "queued", "read", "deliver", "gc"}
	for _, name := range wantSlices {
		found := false
		for _, ev := range doc.TraceEvents {
			if ev.Name == name && ev.Ph == "X" {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing slice %q in trace:\n%s", name, out)
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	a := traceJSON(t)
	b := traceJSON(t)
	if !bytes.Equal(a, b) {
		t.Fatal("identical traces serialized differently")
	}
}

func TestFlightRingBoundedAndOrdered(t *testing.T) {
	f := newFlight(4, 2)
	r := f.Ring("host")
	for i := 0; i < 10; i++ {
		r.Record(sim.Time(i*100), "enqueue", uint64(i), 0)
	}
	f.Trigger("timeout", 1000)
	dumps := f.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	ev := dumps[0].Events
	if len(ev) != 4 {
		t.Fatalf("ring depth 4 must retain 4 events, got %d", len(ev))
	}
	// Only the newest 4 survive, oldest-first.
	for i, e := range ev {
		if e.ID != uint64(6+i) {
			t.Fatalf("event %d has id %d, want %d (oldest-first, newest retained)", i, e.ID, 6+i)
		}
		if i > 0 && ev[i-1].Seq > e.Seq {
			t.Fatal("merged events must be ordered by sequence")
		}
	}
}

func TestFlightMergesRingsBySeq(t *testing.T) {
	f := newFlight(8, 2)
	host := f.Ring("host")
	dev := f.Ring("device")
	host.Record(100, "enqueue", 1, 0)
	dev.Record(200, "fetch", 1, 0)
	host.Record(300, "enqueue", 2, 0)
	f.Trigger("reset", 400)
	ev := f.Dumps()[0].Events
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	wantComp := []string{"host", "device", "host"}
	for i, e := range ev {
		if e.Component != wantComp[i] {
			t.Fatalf("event %d from %q, want %q (global order interleaves rings)", i, e.Component, wantComp[i])
		}
	}
}

func TestFlightMaxDumpsKeepsFirst(t *testing.T) {
	f := newFlight(4, 2)
	f.Ring("host").Record(10, "enqueue", 1, 0)
	f.Trigger("timeout", 100)
	f.Trigger("timeout", 200)
	f.Trigger("reset", 300)
	dumps := f.Dumps()
	if len(dumps) != 2 {
		t.Fatalf("got %d dumps, want maxDumps=2", len(dumps))
	}
	if dumps[0].At != 100 || dumps[1].At != 200 {
		t.Fatalf("dumps at %v/%v, want the first two escalations", dumps[0].At, dumps[1].At)
	}
}

func TestFlightWriteTextFormat(t *testing.T) {
	f := newFlight(4, 2)
	f.Ring("recovery").Record(1_000_000, "timeout", 9, 3)
	f.Trigger("timeout", 2_000_000)
	var buf bytes.Buffer
	if err := f.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "flight dump 1: timeout") || !strings.Contains(out, "recovery") {
		t.Fatalf("unexpected dump text:\n%s", out)
	}
}

func TestSamplerWindowsAndCSV(t *testing.T) {
	eng := sim.New()
	o := New(eng)
	v := 0.0
	o.Registry.Register("x", func() float64 { v++; return v })
	o.EnableSampler(100 * sim.Microsecond)
	o.Start()
	end := sim.Time(450 * sim.Microsecond)
	eng.RunUntil(end)
	o.Finish(end)
	series := o.Sampler().Series()
	if len(series) != 1 || series[0].Name != "x" {
		t.Fatalf("series = %+v", series)
	}
	// Ticks at 100..400µs plus the Finish flush: first window [0,100) is
	// empty of gauge reads, later windows carry one sample each.
	if len(series[0].Points) < 4 {
		t.Fatalf("got %d points, want >= 4", len(series[0].Points))
	}
	var buf bytes.Buffer
	if err := o.Sampler().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t_us,x" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines) != len(series[0].Points)+1 {
		t.Fatalf("CSV has %d rows, want %d", len(lines)-1, len(series[0].Points))
	}
}

func TestSamplerWriteJSONValid(t *testing.T) {
	eng := sim.New()
	o := New(eng)
	o.Registry.Register("g", func() float64 { return 1.5 })
	o.EnableSampler(50 * sim.Microsecond)
	o.Start()
	end := sim.Time(200 * sim.Microsecond)
	eng.RunUntil(end)
	o.Finish(end)
	var buf bytes.Buffer
	if err := o.Sampler().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string][]map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc["g"]) == 0 {
		t.Fatal("no points for gauge g")
	}
}

func TestWriteTableContainsPhases(t *testing.T) {
	o := New(sim.New())
	o.EnableTrace(10)
	sp := o.StartSpan()
	sp.ReqID = 1
	sp.Tenant = "fio-L"
	sp.Op = "read"
	sp.Issue, sp.Submit, sp.Fetch = 0, 1000, 2000
	sp.Service, sp.CQEPost, sp.Complete = 3000, 4000, 5000
	sp.End()
	var buf bytes.Buffer
	if err := o.Tracer().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"queue_wait", "chip#", "delivery", "fio-L"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestDisabledHooksAllocFree asserts the disabled observability path costs
// no allocations: nil ring records, nil tracer instants, nil span
// stamps/ends, and nil flight triggers must all be free.
func TestDisabledHooksAllocFree(t *testing.T) {
	var r *Ring
	var tr *Tracer
	var sp *Span
	var f *Flight
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(100, "enqueue", 1, 2)
		tr.RecordInstant("timeout", 100, "")
		tr.RecordGC(0, 0, 100, 1)
		sp.End()
		_ = sp.Child(3)
		f.Trigger("reset", 100)
	})
	if allocs != 0 {
		t.Fatalf("disabled hooks cost %v allocs/op, want 0", allocs)
	}
}

// TestEnabledRingRecordAllocFree asserts the armed flight ring stays
// allocation-free per record — it writes into a preallocated buffer.
func TestEnabledRingRecordAllocFree(t *testing.T) {
	f := newFlight(64, 2)
	r := f.Ring("host")
	i := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		r.Record(sim.Time(i), "enqueue", i, 0)
	})
	if allocs != 0 {
		t.Fatalf("armed Ring.Record cost %v allocs/op, want 0", allocs)
	}
}

func TestObserverAccessorsNilWhenDisabled(t *testing.T) {
	o := New(sim.New())
	if o.Tracer() != nil || o.Sampler() != nil || o.Flight() != nil {
		t.Fatal("fresh observer must have no surfaces armed")
	}
	if o.StartSpan() != nil {
		t.Fatal("StartSpan without EnableTrace must return nil")
	}
}

func TestEnableTraceArmsFlight(t *testing.T) {
	o := New(sim.New())
	o.EnableTrace(5)
	if o.Flight() == nil {
		t.Fatal("EnableTrace must arm the flight recorder")
	}
}
