// Package stats provides the measurement substrate for the reproduction:
// log-bucketed latency histograms with percentile queries, windowed
// throughput/IOPS time series, and CPU-utilization meters. These mirror the
// metrics the paper reports in its figures (average latency, 99th/99.9th
// tail latency, KIOPS, MB/s, CPU util).
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"daredevil/internal/sim"
)

const (
	// subBucketBits controls histogram resolution: 2^subBucketBits linear
	// sub-buckets per power-of-two magnitude (~3% worst-case relative
	// error, plenty for latency reporting).
	subBucketBits  = 6
	subBucketCount = 1 << subBucketBits
	halfSub        = subBucketCount / 2
	// maxMag covers every representable positive int64: values in
	// [2^62, 2^63) land in magnitude 57.
	maxMag     = 57
	numBuckets = subBucketCount + maxMag*halfSub

	// Pages partition the bucket array for lazy allocation. A page is
	// small enough that a workload clustered around a few latency
	// magnitudes (the common case: every real distribution occupies a
	// handful of decades) commits a few kilobytes instead of the full
	// 15KB bucket array.
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	numPages = (numBuckets + pageSize - 1) / pageSize
)

// Histogram is a log-linear histogram of durations, in the spirit of
// HdrHistogram: constant-time recording, bounded quantile error, mergeable.
// The zero value is ready to use.
type Histogram struct {
	// pages holds the bucket array in lazily-allocated pageSize chunks:
	// the full array is ~15KB, and a Job carries two histograms, so
	// committing it eagerly (or even on first Record) would dominate the
	// simulator's allocation volume. Bucket i lives at
	// pages[i>>pageBits][i&pageMask]; a nil page is all zeros. A page is a
	// pointer to a fixed-size array rather than a slice: one word per page
	// instead of three keeps the directory at 240 B instead of 720 B, and
	// every cell builds a few dozen histograms before it records anything.
	pages [numPages]*[pageSize]uint64
	count uint64
	sum   int64
	min   int64
	max   int64
}

// page returns the page holding bucket index idx, allocating it on first
// use. Pages are uniform pageSize even at the tail — the waste is a few
// words and keeps Record branch-free on the index math.
func (h *Histogram) page(idx int) *[pageSize]uint64 {
	p := h.pages[idx>>pageBits]
	if p == nil {
		p = new([pageSize]uint64)
		h.pages[idx>>pageBits] = p
	}
	return p
}

// bucketIndex maps any value to its bucket; negatives clamp to bucket 0.
//
// Values below subBucketCount get unit-width buckets; each further
// power-of-two magnitude gets halfSub buckets of width 2^mag.
func bucketIndex(v int64) int {
	if v < 0 {
		return 0
	}
	if v < subBucketCount {
		return int(v)
	}
	mag := bits.Len64(uint64(v)) - 1 - (subBucketBits - 1) // >= 1
	sub := int(v >> uint(mag))                             // in [halfSub, subBucketCount)
	idx := subBucketCount + (mag-1)*halfSub + (sub - halfSub)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// lowerBounds[i] is the smallest value that lands in bucket i.
var lowerBounds = buildLowerBounds()

func buildLowerBounds() []int64 {
	bounds := make([]int64, 0, numBuckets)
	for v := int64(0); v < subBucketCount; v++ {
		bounds = append(bounds, v)
	}
	for mag := 1; mag <= maxMag; mag++ {
		width := int64(1) << uint(mag)
		start := int64(halfSub) << uint(mag)
		for s := int64(0); s < halfSub; s++ {
			bounds = append(bounds, start+s*width)
		}
	}
	return bounds
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d sim.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	h.page(idx)[idx&pageMask]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(h.count))
}

// Min reports the smallest observation, or 0 when empty.
func (h *Histogram) Min() sim.Duration { return sim.Duration(h.min) }

// Max reports the largest observation, or 0 when empty.
func (h *Histogram) Max() sim.Duration { return sim.Duration(h.max) }

// Quantile reports the q-quantile (q in [0,1]); Quantile(0.999) is the
// paper's 99.9th tail latency. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for pi, p := range h.pages {
		if p == nil {
			continue
		}
		for j, c := range p {
			if c == 0 {
				continue
			}
			cum += c
			if cum >= rank {
				// Bucket midpoint, clamped to the recorded extremes so
				// small histograms stay near-exact.
				i := pi*pageSize + j
				lo := lowerBounds[i]
				hi := h.bucketUpper(i)
				mid := lo + (hi-lo)/2
				if mid > h.max {
					mid = h.max
				}
				if mid < h.min {
					mid = h.min
				}
				return sim.Duration(mid)
			}
		}
	}
	return sim.Duration(h.max)
}

func (h *Histogram) bucketUpper(i int) int64 {
	if i+1 < numBuckets {
		return lowerBounds[i+1] - 1
	}
	return math.MaxInt64
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for pi, op := range other.pages {
		if op == nil {
			continue
		}
		hp := h.pages[pi]
		if hp == nil {
			hp = new([pageSize]uint64)
			h.pages[pi] = hp
		}
		for j, c := range op {
			hp[j] += c
		}
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Reset clears all observations, keeping allocated pages for reuse.
func (h *Histogram) Reset() {
	for _, p := range h.pages {
		if p != nil {
			*p = [pageSize]uint64{}
		}
	}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Snapshot summarizes a histogram for reporting.
type Snapshot struct {
	Count uint64
	Mean  sim.Duration
	P50   sim.Duration
	P90   sim.Duration
	P99   sim.Duration
	P999  sim.Duration
	Max   sim.Duration
}

// Snapshot computes a summary of the current contents.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// String renders the snapshot compactly.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
}
