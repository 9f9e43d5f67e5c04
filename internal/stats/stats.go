// Package stats provides the small statistical toolkit used by the
// experiment harness and benchmarks: summaries (mean, median, percentiles,
// standard deviation), histograms, and aligned plain-text tables. It also
// owns the Prometheus text exposition: the services hand it typed
// families and WriteText prints them.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	// N is the sample size.
	N int
	// Mean is the arithmetic mean (0 for an empty sample).
	Mean float64
	// Std is the population standard deviation.
	Std float64
	// Min and Max bound the sample.
	Min, Max float64
	// P50, P90, P99 are percentiles by nearest-rank interpolation.
	P50, P90, P99 float64
}

// Summarize computes a Summary of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // numeric noise
	}
	return Summary{
		N:    len(sorted),
		Mean: mean,
		Std:  math.Sqrt(variance),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P50:  Percentile(sorted, 0.50),
		P90:  Percentile(sorted, 0.90),
		P99:  Percentile(sorted, 0.99),
	}
}

// SummarizeInts converts and summarizes integer observations.
func SummarizeInts(xs []int64) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// Percentile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample using linear interpolation between closest ranks. It panics on
// an unsorted assumption violation only implicitly; callers must sort.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.0f p50=%.1f p90=%.1f p99=%.1f max=%.0f",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// Histogram counts observations into fixed-width buckets.
type Histogram struct {
	// Lo is the lower bound of the first bucket.
	Lo float64
	// Width is each bucket's width.
	Width float64
	// Counts holds per-bucket counts; the final bucket absorbs overflow
	// and the first absorbs underflow.
	Counts []int64
}

// NewHistogram builds a histogram of buckets fixed-width buckets starting
// at lo. It panics if buckets < 1 or width <= 0.
func NewHistogram(lo, width float64, buckets int) *Histogram {
	if buckets < 1 || width <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram (width=%v buckets=%d)", width, buckets))
	}
	return &Histogram{Lo: lo, Width: width, Counts: make([]int64, buckets)}
}

// Observe adds x to the histogram.
func (h *Histogram) Observe(x float64) {
	i := int(math.Floor((x - h.Lo) / h.Width))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}
