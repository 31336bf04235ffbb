package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"daredevil/internal/walltime"
)

// spanLog keeps coarse spans in memory (cell build and run, experiments,
// HTTP POST and GET) and writes them as Chrome trace events when the run
// ends. Per-call timings of the seam decorators are counters, not spans,
// so memory stays bounded. A nil *spanLog records nothing.
type spanLog struct {
	mu     sync.Mutex // serve-mix requests record from their own goroutines
	origin walltime.Stopwatch
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{origin: walltime.Start()} }

// now is the span clock; zero on a nil log.
func (l *spanLog) now() time.Duration {
	if l == nil {
		return 0
	}
	return l.origin.Elapsed()
}

// add records a span from start to now. tid separates concurrent lanes
// (one per serve-mix request); id ties the spans of one request.
func (l *spanLog) add(cat, name string, tid int, id int, start time.Duration) {
	if l == nil {
		return
	}
	end := l.origin.Elapsed()
	ev := traceEvent{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: tid,
		TS: float64(start) / 1e3, Dur: float64(end-start) / 1e3,
	}
	if id >= 0 {
		ev.Args = map[string]any{"id": id}
	}
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": l.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runtimeSample is a snapshot of the Go runtime counters a phase is
// charged with.
type runtimeSample struct {
	gcCycles, gcCPU, totalCPU, allocBytes float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{gcCycles: v(0), gcCPU: v(1), totalCPU: v(2), allocBytes: v(3)}
}

// profiled runs fn as the traced phase: it records the Go runtime's GC
// deltas and a CPU profile, and folds the profile's flat samples by
// package into cpu_share.*.
func (r *run) profiled(fn func()) error {
	path := filepath.Join(r.dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	before := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	after := readRuntime()
	if err := f.Close(); err != nil {
		return err
	}
	r.set("runtime.gc_cycles", after.gcCycles-before.gcCycles)
	r.set("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	if err := os.WriteFile(filepath.Join(r.dir, "top.txt"), top, 0o644); err != nil {
		return err
	}
	shares, err := foldTop(top)
	if err != nil {
		return err
	}
	for _, b := range cpuBuckets {
		r.set("cpu_share."+b, shares[b])
	}
	return nil
}

// cpuBuckets are the layers the CPU profile is folded into.
var cpuBuckets = []string{"sim", "cpus", "nvme", "flash", "ftl", "stack", "workload", "obs", "stats", "harness", "runtime", "other"}

// bucketOf maps a package path to its layer: the stack layer covers every
// storage-stack package, obs covers obs and prof, and the Go runtime
// includes its internal packages.
func bucketOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	mod, ok := strings.CutPrefix(pkg, "daredevil/internal/")
	if !ok {
		return "other"
	}
	switch mod {
	case "sim", "cpus", "nvme", "flash", "ftl", "workload", "stats", "harness":
		return mod
	case "blkmq", "blkswitch", "staticpart", "core", "kyber", "stackbase", "block":
		return "stack"
	case "obs", "prof":
		return "obs"
	}
	return "other"
}

// packageOf extracts the package path from a pprof function name such as
// "daredevil/internal/sim.(*Engine).RunUntil" or
// "daredevil/internal/harness.RunCells[go.shape.int].func1".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldTop folds the flat column of `go tool pprof -top` output by layer,
// as shares of all flat samples.
func foldTop(top []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing pprof row %q: %w", sc.Text(), err)
		}
		name := strings.Join(fields[5:], " ")
		shares[bucketOf(packageOf(name))] += pct
		total += pct
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no flat/flat%% table")
	}
	for b := range shares {
		shares[b] = ratio(shares[b], total)
	}
	return shares, nil
}

// finishTrace writes the span file and records the tracing overhead as the
// traced phase's median wall per operation over the untraced phase's,
// minus one.
func (r *run) finishTrace(untracedP50, tracedP50 float64) error {
	r.set("trace.overhead_frac", ratio(tracedP50, untracedP50)-1)
	return r.spans.write(filepath.Join(r.dir, "spans.json"))
}
