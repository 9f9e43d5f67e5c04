package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almostEqual(s.Mean, 3) || !almostEqual(s.Min, 1) || !almostEqual(s.Max, 5) {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEqual(s.P50, 3) {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
	wantStd := math.Sqrt(2) // population std of 1..5
	if !almostEqual(s.Std, wantStd) {
		t.Errorf("Std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Errorf("empty Summarize = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.P99 != 7 {
		t.Errorf("single Summarize = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestSummarizeInts(t *testing.T) {
	s := SummarizeInts([]int64{10, 20, 30})
	if !almostEqual(s.Mean, 20) {
		t.Errorf("SummarizeInts mean = %v", s.Mean)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	cases := []struct {
		p, want float64
	}{
		{0, 0}, {0.5, 5}, {1, 10}, {0.25, 2.5}, {-1, 0}, {2, 10},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); !almostEqual(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("Percentile of empty sample should be 0")
	}
}

// Property: Min <= P50 <= P90 <= P99 <= Max and Min <= Mean <= Max.
func TestSummaryOrderingProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(60))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 &&
			s.P99 <= s.Max && s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	check := func(seed int64, a, b uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.Float64() * 50
		}
		sort.Float64s(xs)
		pa, pb := float64(a)/255, float64(b)/255
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-5, 0, 9.9, 10, 25, 49, 50, 1000} {
		h.Observe(x)
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
	if h.Counts[0] != 3 { // -5 (underflow), 0, 9.9
		t.Errorf("bucket 0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 3 { // 49, 50 (overflow boundary... 49 in bucket 4), 1000
		t.Errorf("bucket 4 = %d, want 3", h.Counts[4])
	}
}

func TestHistogramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 0, 5)
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	str := s.String()
	if !strings.Contains(str, "n=3") || !strings.Contains(str, "mean=2") {
		t.Errorf("String() = %q", str)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "alg", "n", "value")
	tbl.AddRow("mcdp", 8, 1.50)
	tbl.AddRow("noyield", 16, 2.0)
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "1.5") || strings.Contains(out, "1.50") {
		t.Errorf("float trimming failed:\n%s", out)
	}
	// Columns align: header and row share the position of column 2.
	if strings.Index(lines[1], "n") < 0 {
		t.Error("missing header")
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := NewTable("acc", "x", "y")
	tbl.AddRow(1, 2)
	if tbl.Title() != "acc" {
		t.Errorf("Title() = %q", tbl.Title())
	}
	h := tbl.Headers()
	if len(h) != 2 || h[0] != "x" {
		t.Errorf("Headers() = %v", h)
	}
	rows := tbl.Rows()
	if len(rows) != 1 || rows[0][0] != "1" || rows[0][1] != "2" {
		t.Errorf("Rows() = %v", rows)
	}
	// Returned slices are copies.
	h[0] = "mutated"
	rows[0][0] = "mutated"
	if tbl.Headers()[0] != "x" || tbl.Rows()[0][0] != "1" {
		t.Error("accessors leaked internal state")
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("md", "a", "b")
	tbl.AddRow(1, 2)
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown() = %q", md)
	}
	if !strings.Contains(md, "| --- | --- |") {
		t.Error("missing separator row")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:   "1.5",
		2:     "2",
		0:     "0",
		-3.25: "-3.25",
		0.004: "0", // rounds to 0.00 then trims
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPercentileEmptyAndSingleton(t *testing.T) {
	// Empty: every quantile is 0, including the extremes.
	for _, q := range []float64{-1, 0, 0.5, 0.95, 1, 2} {
		if got := Percentile(nil, q); got != 0 {
			t.Errorf("Percentile(nil, %v) = %v, want 0", q, got)
		}
		if got := Quantile(nil, q); got != 0 {
			t.Errorf("Quantile(nil, %v) = %v, want 0", q, got)
		}
	}
	// Singleton: every quantile is the one element.
	for _, q := range []float64{-1, 0, 0.5, 0.95, 1, 2} {
		if got := Percentile([]float64{42}, q); got != 42 {
			t.Errorf("Percentile([42], %v) = %v, want 42", q, got)
		}
		if got := Quantile([]float64{42}, q); got != 42 {
			t.Errorf("Quantile([42], %v) = %v, want 42", q, got)
		}
	}
}

func TestQuantileMatchesPercentileOnUnsortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 64, 65, 500} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
			if got, want := Quantile(xs, q), Percentile(sorted, q); !almostEqual(got, want) {
				t.Errorf("n=%d q=%v: Quantile=%v Percentile=%v", n, q, got, want)
			}
		}
		// Quantile must not mutate its input.
		for i := range xs {
			if i > 0 && xs[i] < xs[i-1] {
				return // still unsorted somewhere: not mutated into sorted order
			}
		}
	}
}

func TestRecorderExactBelowCap(t *testing.T) {
	r := NewRecorder(100)
	for i := 1; i <= 10; i++ {
		r.Observe(float64(i))
	}
	if r.Count() != 10 {
		t.Fatalf("Count = %d, want 10", r.Count())
	}
	s := r.Summary()
	if s.N != 10 || !almostEqual(s.Mean, 5.5) || s.Min != 1 || s.Max != 10 {
		t.Errorf("unexpected summary: %+v", s)
	}
}

func TestRecorderReservoirBoundsMemory(t *testing.T) {
	r := NewRecorder(64)
	for i := 0; i < 10000; i++ {
		r.Observe(float64(i % 100))
	}
	if got := len(r.Samples()); got != 64 {
		t.Errorf("kept %d samples, want cap 64", got)
	}
	if r.Count() != 10000 {
		t.Errorf("Count = %d, want 10000", r.Count())
	}
	for _, x := range r.Samples() {
		if x < 0 || x > 99 {
			t.Fatalf("reservoir holds impossible sample %v", x)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(1024)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				r.Observe(1)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if r.Count() != 4000 {
		t.Errorf("Count = %d, want 4000", r.Count())
	}
}

// histogramValues reads h back through its exposition: the cumulative
// count per finite bound, the total count and the sum.
func histogramValues(h *LatencyHistogram) (cum []float64, count, sum float64) {
	f := HistogramFamily("h", "", h)
	n := len(f.Samples)
	for _, s := range f.Samples[:n-3] {
		cum = append(cum, s.Value)
	}
	return cum, f.Samples[n-1].Value, f.Samples[n-2].Value
}

func TestLatencyHistogramBuckets(t *testing.T) {
	h := NewLatencyHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(x)
	}
	cum, count, sum := histogramValues(h)
	if len(cum) != 3 || count != 5 || !almostEqual(sum, 106.5) {
		t.Fatalf("exposition: cumulative=%v count=%v sum=%v", cum, count, sum)
	}
	wantCum := []float64{1, 3, 4} // le=1:1, le=2:3, le=4:4 (+Inf holds the 100)
	for i := range wantCum {
		if cum[i] != wantCum[i] {
			t.Errorf("cumulative[%d] = %v, want %v", i, cum[i], wantCum[i])
		}
	}
}

func TestLatencyHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLatencyHistogram(%v) did not panic", bounds)
				}
			}()
			NewLatencyHistogram(bounds)
		}()
	}
	if b := DefaultLatencyBounds(); len(b) < 6 {
		t.Errorf("default bounds suspiciously few: %v", b)
	}
}

// Two recorders with the same capacity fed the same stream keep
// byte-identical reservoirs: the replacement decisions come from a
// fixed-seed splitmix64 stream, so percentile reports from replayed
// experiments are reproducible even past the cap.
func TestRecorderDeterministicUnderFixedSeed(t *testing.T) {
	a, b := NewRecorder(32), NewRecorder(32)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		x := rng.ExpFloat64()
		a.Observe(x)
		b.Observe(x)
	}
	sa, sb := a.Samples(), b.Samples()
	if len(sa) != 32 || len(sb) != 32 {
		t.Fatalf("reservoirs hold %d and %d samples, want 32", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("reservoirs diverge at %d: %v vs %v", i, sa[i], sb[i])
		}
	}
	if a.Summary() != b.Summary() {
		t.Errorf("summaries diverge: %v vs %v", a.Summary(), b.Summary())
	}
}

// Bucket assignment is Prometheus `le` semantics: an observation equal
// to a bound lands in that bound's bucket, epsilon above lands in the
// next. Table-driven over every boundary of a small histogram.
func TestLatencyHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	cases := []struct {
		x      float64
		bucket int // index into cumulative counts; len(bounds) = +Inf
	}{
		{0.5, 0},
		{1, 0}, // exactly on the first bound: le=1
		{math.Nextafter(1, 2), 1},
		{2, 1}, // exactly on a middle bound: le=2
		{math.Nextafter(2, 3), 2},
		{4, 2},
		{8, 3},                    // exactly on the last finite bound: le=8
		{math.Nextafter(8, 9), 4}, // +Inf bucket
		{1e9, 4},
	}
	for _, c := range cases {
		h := NewLatencyHistogram(bounds)
		h.Observe(c.x)
		cum, count, _ := histogramValues(h)
		if count != 1 {
			t.Fatalf("x=%v: count %v", c.x, count)
		}
		for i, acc := range cum {
			want := 0.0
			if i >= c.bucket {
				want = 1
			}
			if c.bucket == len(bounds) {
				want = 0 // +Inf only: no finite le bucket sees it
			}
			if acc != want {
				t.Errorf("x=%v: cumulative[le=%v] = %v, want %v", c.x, bounds[i], acc, want)
			}
		}
	}
}

func TestWriteText(t *testing.T) {
	h := NewLatencyHistogram([]float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(3)
	node := Family{Name: "x_node", Help: "Per node.", Type: "gauge", Samples: []Sample{
		{Name: "x_node", Labels: []Label{{"node", "0"}, {"shard", `a"b\c`}}, Value: 2},
	}}
	more := node
	more.Samples = []Sample{{Name: "x_node", Labels: []Label{{"node", "1"}}, Value: 0.5}}
	var b strings.Builder
	if err := WriteText(&b, []Family{
		Counter("x_total", "Total.", 1234567),
		node,
		HistogramFamily("x_seconds", "Latency.", h),
		more,
	}); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_total Total.
# TYPE x_total counter
x_total 1234567
# HELP x_node Per node.
# TYPE x_node gauge
x_node{node="0",shard="a\"b\\c"} 2
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{le="0.5"} 1
x_seconds_bucket{le="1"} 1
x_seconds_bucket{le="+Inf"} 2
x_seconds_sum 3.25
x_seconds_count 2
x_node{node="1"} 0.5
`
	if got := b.String(); got != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", got, want)
	}
}
