package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"daredevil/internal/walltime"
)

// The baseline machine shares its cores' caches and its memory with other
// tenants, and their load moves the speed of any memory-bound program by up
// to 2x, for seconds to minutes at a time. A run cannot escape that, but it
// can measure it: between its rounds, passes or daemon starts it times a
// random walk over calSlots successor links, a working set that misses the
// caches the way the simulator does. The walk is the benchmark's own code and
// no change to the repository moves it. Every end-to-end time is then scaled
// by calNominal over the walk's median time in the run, so it reads what it
// would on the machine at its nominal speed. Per-layer times stay raw.
const (
	calSlots = 2 << 20 // uint32 links: 8 MiB
	calSteps = 100_000 // one timed walk, about 10 ms
	calWalks = 5       // timed walks per calibration point
	// calNominal is the walk's time on the baseline machine in a quiet
	// period, so there a scaled time reads about as measured.
	calNominal = 10 * time.Millisecond
)

// calBytes is the links' resident size. They live outside the Go heap, so
// they do not move the collector's pacing, and rssMB leaves them out of
// this process's resident set.
const calBytes = calSlots * 4

// calibratedMetrics are the end-to-end times that are scaled.
var calibratedMetrics = []string{"wall_p50_ms", "setup_s"}

// calLinks links every slot into one cycle in a fixed random order
// (Sattolo's algorithm), so a walk visits slots without a pattern the
// prefetcher could follow and never falls into a short loop. Every run of
// the process shares them.
var calLinks = sync.OnceValues(func() ([]uint32, error) {
	mem, err := syscall.Mmap(-1, 0, calBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration links: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calSlots)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(next) - 1; i > 0; i-- {
		// xorshift64: fixed, and independent of the repository's own RNG.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return next, nil
})

// calibrator holds one run's walk times.
type calibrator struct {
	next  []uint32
	walks []float64 // ms
	// at is where the next walk starts; sink keeps the sequential pass
	// from being optimised away.
	at, sink uint32
}

func newCalibrator() (*calibrator, error) {
	next, err := calLinks()
	if err != nil {
		return nil, err
	}
	return &calibrator{next: next}, nil
}

// calibrate takes one calibration point. A forced collection first keeps a
// collection of the workload's garbage out of the walks, and a sequential
// pass over the links first keeps the workload's cache footprint out of
// them, so only the machine's state moves their time.
func (c *calibrator) calibrate() {
	runtime.GC()
	var sum uint32
	for _, v := range c.next {
		sum += v
	}
	c.sink = sum
	p := c.at
	for range calWalks {
		sw := walltime.Start()
		for range calSteps {
			p = c.next[p]
		}
		c.walks = append(c.walks, ms(sw.Elapsed()))
	}
	c.at = p
}

// scale is the factor that brings a time measured in this run to the
// machine's nominal speed, or 1 when no walk was taken.
func (c *calibrator) scale() float64 {
	if len(c.walks) == 0 {
		return 1
	}
	return ms(calNominal) / median(c.walks)
}
