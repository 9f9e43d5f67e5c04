package main

import "testing"

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		want float64
		n    int
		q    float64
	}{
		{0.99, 1000, 0.99},   // exactly 10 beyond p99
		{0.99, 100000, 0.99}, // plenty beyond
		{0.99, 500, 0.98},    // p99 would leave 5: fall back to p98
		{0.99, 100, 0.9},     // p90 leaves 10
		{0.99, 15, 0.5},      // never below the median
		{0.5, 15, 0.5},
	}
	for _, c := range cases {
		if got := tailQuantile(c.want, c.n); got != c.q {
			t.Errorf("tailQuantile(%g, %d) = %g, want %g", c.want, c.n, got, c.q)
		}
	}
}

func TestPercentileLeavesTenBeyondAndPrintsN(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 500..1, unsorted
	}
	p := percentile(xs, 0.99)
	if p.value != 490 {
		t.Fatalf("value = %g, want 490 (10 samples beyond)", p.value)
	}
	beyond := 0
	for _, x := range xs {
		if x > p.value {
			beyond++
		}
	}
	if beyond != minTail {
		t.Fatalf("%d samples beyond the reported percentile, want %d", beyond, minTail)
	}
	if got, want := p.String(), "p98 of n=500"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	r := ratio{3, 4}
	if r.value() != 0.75 {
		t.Fatalf("value = %g", r.value())
	}
	if got := r.String(); got != "3/4" {
		t.Fatalf("String() = %q, want 3/4", got)
	}
	empty := ratio{0, 0}
	if empty.value() != 0 || empty.String() != "0/0" {
		t.Fatalf("empty ratio = %g %q, want 0 and 0/0", empty.value(), empty.String())
	}
	m := ratioMetric("server.grant_ratio", 30000, 30000)
	if m.value != 1 || m.note != "30000/30000" {
		t.Fatalf("ratio metric = %+v, want value 1 with base 30000/30000", m)
	}
}
