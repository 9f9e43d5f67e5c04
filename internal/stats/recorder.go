package stats

import (
	"strconv"
	"sync"
)

// Recorder is a concurrency-safe sample collector for latency-style
// observations. Up to cap samples are kept exactly; past the cap,
// reservoir sampling keeps a uniform subset so percentiles stay
// representative under unbounded load. The zero value is not useful;
// use NewRecorder.
type Recorder struct {
	mu      sync.Mutex
	cap     int       // guarded by mu
	samples []float64 // guarded by mu
	seen    int64     // guarded by mu
	rng     uint64    // splitmix64 state for the reservoir decisions; guarded by mu
}

// NewRecorder returns a recorder keeping at most capacity samples
// (<= 0 means a default of 1 << 20).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Recorder{cap: capacity, rng: 0x9e3779b97f4a7c15}
}

// Observe records one sample.
func (r *Recorder) Observe(x float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, x)
		return
	}
	// Reservoir: replace a uniformly random kept sample with probability
	// cap/seen.
	r.rng ^= r.rng >> 30
	r.rng *= 0xbf58476d1ce4e5b9
	r.rng ^= r.rng >> 27
	r.rng *= 0x94d049bb133111eb
	r.rng ^= r.rng >> 31
	if i := int64(r.rng % uint64(r.seen)); i < int64(r.cap) {
		r.samples[i] = x
	}
}

// Count returns the number of samples observed (not just kept).
func (r *Recorder) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// Samples returns a copy of the kept samples.
func (r *Recorder) Samples() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples...)
}

// Summary summarizes the kept samples.
func (r *Recorder) Summary() Summary { return Summarize(r.Samples()) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs without assuming
// the caller sorted them; empty samples yield 0 and a singleton yields
// its only element. It is the unsorted-input convenience over
// Percentile.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	insertionSortFloats(sorted)
	return Percentile(sorted, q)
}

// insertionSortFloats sorts in place; recorders feed mostly-small
// slices through Quantile on hot reporting paths, where this beats the
// allocation-happy general sort for tiny n and stays acceptable for
// large n used once per report.
func insertionSortFloats(xs []float64) {
	if len(xs) > 64 {
		// Heapsort for big inputs: in-place, no allocations, O(n log n).
		heapSortFloats(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func heapSortFloats(xs []float64) {
	n := len(xs)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownFloats(xs, i, n)
	}
	for end := n - 1; end > 0; end-- {
		xs[0], xs[end] = xs[end], xs[0]
		siftDownFloats(xs, 0, end)
	}
}

func siftDownFloats(xs []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && xs[child+1] > xs[child] {
			child++
		}
		if xs[root] >= xs[child] {
			return
		}
		xs[root], xs[child] = xs[child], xs[root]
		root = child
	}
}

// LatencyHistogram is a concurrency-safe histogram over explicit bucket
// upper bounds, in the shape Prometheus expects: observations are
// counted into the first bucket whose upper bound is >= x, with an
// implicit +Inf bucket at the end. The zero value is not useful; use
// NewLatencyHistogram.
type LatencyHistogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, exclusive of +Inf; guarded by mu
	counts []int64   // len(bounds) + 1; last is the +Inf bucket; guarded by mu
	les    []Label   // the le label of each bucket, +Inf last; immutable
	sum    float64   // guarded by mu
	count  int64     // guarded by mu
}

// DefaultLatencyBounds returns exponential seconds-scale bounds for
// lock-acquire latencies: 1µs doubling up to ~16s. The microsecond
// start matters for the framed wire transport, whose uncontended
// grants land well under a millisecond — a 0.5ms first bound would
// flatten them all into one bucket and make the histogram p50
// meaningless at wire speeds.
func DefaultLatencyBounds() []float64 {
	var bounds []float64
	for b := 1e-6; b < 20; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// NewLatencyHistogram returns a histogram over the given ascending
// upper bounds. It panics on empty or unsorted bounds.
func NewLatencyHistogram(bounds []float64) *LatencyHistogram {
	if len(bounds) == 0 {
		panic("stats: LatencyHistogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: LatencyHistogram bounds must be ascending")
		}
	}
	les := make([]Label, 0, len(bounds)+1)
	for _, b := range bounds {
		les = append(les, Label{"le", strconv.FormatFloat(b, 'g', -1, 64)})
	}
	return &LatencyHistogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
		les:    append(les, Label{"le", "+Inf"}),
	}
}

// Observe records one observation.
func (h *LatencyHistogram) Observe(x float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := len(h.bounds) // +Inf bucket
	for j, b := range h.bounds {
		if x <= b {
			i = j
			break
		}
	}
	h.counts[i]++
	h.sum += x
	h.count++
}
