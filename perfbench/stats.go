package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailQuantile applies the percentile rule: report the wanted quantile
// when at least minTail of n samples lie beyond it, otherwise the
// highest quantile that still leaves minTail beyond it, never below the
// median.
func tailQuantile(want float64, n int) float64 {
	if n <= 0 {
		return want
	}
	q := math.Min(want, 1-float64(minTail)/float64(n))
	return math.Max(q, 0.5)
}

// quantile reads the q-quantile of sorted xs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// pct is one reported percentile: which quantile the rule allowed, over
// how many samples, and its value.
type pct struct {
	q     float64
	n     int
	value float64
}

// percentile sorts xs in place and reports the wanted quantile under
// the percentile rule.
func percentile(xs []float64, want float64) pct {
	sort.Float64s(xs)
	q := tailQuantile(want, len(xs))
	return pct{q: q, n: len(xs), value: quantile(xs, q)}
}

func (p pct) String() string {
	return fmt.Sprintf("p%s of n=%d", trimFloat(100*p.q), p.n)
}

// ratio is a share printed with its base, so a reader sees whether
// 1.0 means 3/3 or 30000/30000.
type ratio struct{ num, den float64 }

// value is num/den, or 0 when the base is empty.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%s/%s", trimFloat(r.num), trimFloat(r.den))
}

// trimFloat prints a float without trailing zeros.
func trimFloat(x float64) string { return fmt.Sprintf("%g", x) }
