package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"daredevil/internal/walltime"
)

// defaultSeed is the seed the pinned fingerprints were taken with.
const defaultSeed = 1

// run is one invocation: its inputs, what it measured, and what went
// wrong. Workloads fill it; main prints it.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	// dir receives spans.json, cpu.pprof and top.txt on traced runs.
	dir string

	attempted int
	failed    int
	problems  []string
	// notes say how the printed numbers were taken (sample counts, which
	// percentile the tail is).
	notes []string
	// prints are the run's output fingerprints (name → sha256), checked
	// against fingerprints.json when the run uses the pinned seed.
	prints   map[string]string
	measured map[string]float64
	// spans is nil on untraced runs; its methods are nil-safe.
	spans *spanLog
	cal   *calibrator
}

func newRun(workload string, seed uint64, seconds time.Duration, traced bool, dir string) (*run, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	r := &run{
		workload: workload, seed: seed, seconds: seconds, traced: traced, dir: dir,
		prints:   map[string]string{},
		measured: map[string]float64{},
		cal:      cal,
	}
	if traced {
		r.spans = newSpanLog()
	}
	return r, nil
}

// maxProblems bounds how many failure descriptions a run keeps.
const maxProblems = 20

// fail counts one failed operation and keeps its description.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.measured[name] = v }

// calibrateTimes scales the end-to-end times to the machine's nominal
// speed (see calibrator) and notes the raw values beside the factor.
func (r *run) calibrateTimes() {
	s := r.cal.scale()
	r.set("calib.walk_ms", median(r.cal.walks))
	for _, name := range calibratedMetrics {
		if v, ok := r.measured[name]; ok {
			r.note("%s reads %.6g as measured; scaled by %.4f from %d calibration walks", name, v, s, len(r.cal.walks))
			r.measured[name] = v * s
		}
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// untracedPhase is how long the untraced timed phase lasts: the whole
// budget, or half of it on a traced run, whose other half is traced and
// compared against this half for trace.overhead_frac.
func (r *run) untracedPhase() time.Duration {
	if r.traced {
		return r.seconds / 2
	}
	return r.seconds
}

// fingerprint hashes output bytes.
func fingerprint(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// pinned holds the default-seed fingerprints of every workload.
type pinned struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

//go:embed fingerprints.json
var pinnedJSON []byte

func loadPinned() (pinned, error) {
	var p pinned
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return p, fmt.Errorf("parsing fingerprints.json: %w", err)
	}
	return p, nil
}

// checkPinned compares the run's fingerprints with the pinned ones when the
// run used the pinned seed: a change that only claims speed must leave
// every simulated output byte-identical.
func (r *run) checkPinned(p pinned) {
	if r.seed != p.Seed {
		return
	}
	want, ok := p.Workloads[r.workload]
	if !ok {
		r.fail("no pinned fingerprints for %s (regenerate with: bash bench/run.sh pin)", r.workload)
		return
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got := r.prints[name]; got != want[name] {
			r.fail("%s: output fingerprint %.12s differs from pinned %.12s", name, got, want[name])
		}
	}
	for name := range r.prints {
		if _, ok := want[name]; !ok {
			r.fail("%s: output has no pinned fingerprint", name)
		}
	}
}

// rssMB reads VmRSS, the resident set, of a process ("self" for this one)
// from /proc, in MiB. This process's calibration links are left out: they
// are the benchmark's, not the workload's.
func rssMB(pid string) (float64, error) {
	var bias float64
	if pid == "self" {
		if _, err := calLinks(); err == nil {
			bias = calBytes / (1 << 20)
		}
	}
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmRSS:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS: %w", err)
			}
			return kb/1024 - bias, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%s/status", pid)
}

// rssEvery is the resident-set sampling period.
const rssEvery = 50 * time.Millisecond

// rssSampler reads a process's resident set every rssEvery on its own
// goroutine until stop.
type rssSampler struct {
	quit chan struct{}
	done chan []float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mbs []float64
		sw := walltime.Start()
		for i := 1; ; i++ {
			if mb, err := rssMB(pid); err == nil {
				mbs = append(mbs, mb)
			}
			select {
			case <-s.quit:
				s.done <- mbs
				return
			default:
			}
			sleepUntil(sw, time.Duration(i)*rssEvery)
		}
	}()
	return s
}

// stop ends sampling, waits for the sampler to exit, and returns the mean
// sample: the time-averaged footprint. The peak says more about when the
// garbage collector happened to run than about the program, and the grid's
// resident set sits at two levels (about 8 MB, and 35–60 MB while ext-gc
// holds two aged devices), so its median flips between them.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	var sum float64
	mbs := <-s.done
	for _, mb := range mbs {
		sum += mb
	}
	return ratio(sum, float64(len(mbs)))
}

// sleepUntil blocks until sw reads at least at.
func sleepUntil(sw walltime.Stopwatch, at time.Duration) {
	if d := at - sw.Elapsed(); d > 0 {
		//lint:ddvet:allow simdeterminism open-loop pacing and readiness polling are host-time by nature; the simulations they drive stay on virtual time
		time.Sleep(d)
	}
}

// ms converts a host duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
