// Command perfbench drives dinerd's grant path in-process and reports
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1) for
// one named workload. It builds a lockservice.Router, serves it over
// the wire transport on a loopback listener, and loads it through one
// pooled wire client with at most one connection per CPU. All inputs
// are generated from --seed before the router starts.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// The command exits 1 on a correctness violation, and 3 when the run
// is invalid (the load needed more connections than the machine has
// CPUs).
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload uniform --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mcdp/internal/bench"
	"mcdp/internal/lockservice"
)

// setups is how many times an untraced run sets the service up, once
// for each segment and the rest bare; the median is reported as setup_s.
const setups = 24

// segments is how many routers an untraced run measures in turn.
const segments = 4

// deadline bounds a whole run, set-up and checks included.
const deadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name: uniform, zipf-hot or span-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured time in seconds; a traced run splits it into an untraced and a traced half")
		traced  = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(2)
	})
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, code, err := run(os.Stdout, w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

// result is the last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures workload w for the given time and prints its report to
// out. It returns the result line, or nil when the run could not be
// scored, with the exit code.
//
// An untraced run cuts the time into segments, each on a freshly set-up
// router with its own inputs, and reports medians over segments: the
// diners substrate and the controller settle into a state whose speed
// differs from one router to the next, and one router per run would
// score that state, not the code. A traced run uses one router and
// splits the time into an untraced and a traced half, so the two can
// be compared, then runs the failover probe if the workload has one.
func run(out io.Writer, w workload, seed int64, measured time.Duration, traced bool) (*result, int, error) {
	ctx := context.Background()
	nseg := segments
	lens := []time.Duration{measured / segments}
	if traced {
		nseg = 1
		lens = []time.Duration{measured / 2, measured / 2}
		if w.kills > 0 {
			lens = append(lens, probeLen)
		}
	}
	cfg := w.routerConfig(nil, logf)
	cat := newCatalog(placementRing(cfg), w.shards, w.graph())

	fp := bench.CurrentFingerprint()
	fmt.Fprintf(out, "perfbench: workload %s seed %d, %d segment(s) with windows %v, traced %v, on %s/%s %s, %d CPUs, GOMAXPROCS %d\n",
		w.name, seed, nseg, lens, traced, fp.GOOS, fp.GOARCH, fp.GoVersion, fp.NumCPU, fp.GOMAXPROCS)

	var setupS []float64
	for i := 0; !traced && i < setups-nseg; i++ {
		e, d, err := setUp(ctx, w, generate(w, cat, seed, 0), false)
		if err != nil {
			return nil, 1, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		e.tearDown()
	}
	var segs []segment
	var violations []string
	var ms, extra []metric
	for i := 0; i < nseg; i++ {
		e, d, err := setUp(ctx, w, generate(w, cat, seed, i), traced)
		if err != nil {
			return nil, 1, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		if err := checkPlacement(e.rt.RingInfo(), cat); err != nil {
			e.tearDown()
			return nil, 1, err
		}
		l := e.drive(ctx, lens...)
		violations = append(violations, e.check(l)...)
		scored := l.windows[untracedWin]
		if traced {
			scored = l.windows[tracedWin]
			ms, extra = layerReport(e, l)
			if err := writeTrace(w.name, l.spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing the trace: %v\n", err)
			}
		}
		e.tearDown()
		// Machine-size guard: the load model assumes no more
		// connections than CPUs. A run that breaks it is invalid.
		if conns := l.counters[len(l.counters)-1].connsOpened; conns > int64(wireConns()) {
			return nil, 3, fmt.Errorf("invalid run: the client opened %d connections, more than the %d CPUs", conns, wireConns())
		}
		segs = append(segs, summarize(l, scored))
		// The next segment starts from a collected heap, not from this
		// one's garbage.
		runtime.GC()
	}
	if !traced {
		ms = endToEnd(segs, setupS)
	}

	for _, m := range append(ms, extra...) {
		fmt.Fprintf(out, "perfbench: %-32s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	var attempted, failed int64
	fails := map[string]int{}
	for _, s := range segs {
		attempted += s.attempted
		failed += s.failed
		for k, n := range s.fails {
			fails[k] += n
		}
	}
	if failed > 0 {
		fmt.Fprintf(out, "perfbench: failed operations by kind and code: %v\n", fails)
	}
	for _, v := range violations {
		fmt.Fprintf(out, "perfbench: VIOLATION: %s\n", v)
	}
	res := result{Correct: len(violations) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonValue{}}
	for _, m := range ms {
		res.Metrics[m.name] = jsonValue{m.value, m.unit}
	}
	if !res.Correct {
		return &res, 1, fmt.Errorf("%d correctness violation(s)", len(violations))
	}
	return &res, 0, nil
}

// segment is what a run keeps of one router's load once the router is
// gone: the figures of its scored window.
type segment struct {
	grantsPerS        float64
	latencyMS         []float64
	heapPeakMB        float64
	scrapeMS          []float64
	attempted, failed int64
	fails             map[string]int
}

func summarize(l *load, win [2]int64) segment {
	st := clientStats(l.ops, win)
	s := segment{
		grantsPerS: float64(st.grants) / (float64(win[1]-win[0]) / 1e9),
		latencyMS:  st.latencyMS,
		attempted:  st.attempted,
		failed:     st.failed,
		fails:      failures(l.ops, win),
	}
	for _, x := range l.samples {
		if within(x.at, win) {
			s.heapPeakMB = math.Max(s.heapPeakMB, float64(x.heap)/(1<<20))
			if x.scrapeNS > 0 {
				s.scrapeMS = append(s.scrapeMS, float64(x.scrapeNS)/1e6)
			}
		}
	}
	return s
}

// endToEnd computes the user-visible metrics: set-up time as the median
// of every set-up, scrape time and the share of operations that
// succeeded over every segment's samples, and the rest as the median
// over segments of the segment's figure, so that a stall of the machine
// during one segment does not move the result.
func endToEnd(segs []segment, setupS []float64) []metric {
	var gps, p50, p99, heap, scrape []float64
	var attempted, failed int64
	n := -1
	for _, s := range segs {
		gps = append(gps, s.grantsPerS)
		p50 = append(p50, percentile(s.latencyMS, 0.5).value)
		p99 = append(p99, percentile(s.latencyMS, 0.99).value)
		if n < 0 || len(s.latencyMS) < n {
			n = len(s.latencyMS)
		}
		heap = append(heap, s.heapPeakMB)
		scrape = append(scrape, s.scrapeMS...)
		attempted += s.attempted
		failed += s.failed
	}
	over := fmt.Sprintf("median over %d segments", len(segs))
	each := fmt.Sprintf("; each segment's p%s of n>=%d", trimFloat(100*tailQuantile(0.99, n)), n)
	ok := ratio{float64(attempted - failed), float64(attempted)}
	return []metric{
		{"setup_s", "s", median(setupS), fmt.Sprintf("median of %d set-ups", len(setupS))},
		{"grants_per_s", "1/s", median(gps), over + listed(gps)},
		{"acquire_p50_ms", "ms", median(p50), over + listed(p50)},
		{"acquire_p99_ms", "ms", median(p99), over + listed(p99) + each},
		{"ok_frac", "1", ok.value(), "succeeded/attempted operations: " + ok.String()},
		pctMetric("scrape_ms", "ms", scrape, 0.5),
		{"heap_peak_mb", "MiB", median(heap), over + " of the segment peak" + listed(heap)},
	}
}

// listed formats per-segment values for the report.
func listed(xs []float64) string {
	s := " of"
	for _, x := range xs {
		s += fmt.Sprintf(" %.4g", x)
	}
	return s
}

// failures counts the failed operations started in w by kind and
// rejection code (0 for a transport error).
func failures(ops []opRec, w [2]int64) map[string]int {
	out := map[string]int{}
	for _, r := range ops {
		switch {
		case r.status == opAcquireFailed && within(r.start, w):
			out[fmt.Sprintf("acquire/%d", r.code)]++
		case r.status >= opReleaseFailed && within(r.relSend, w):
			out[fmt.Sprintf("release/%d", r.code)]++
		}
	}
	return out
}

// checkPlacement confirms that the ring the inputs were generated
// against is the one the router built.
func checkPlacement(info lockservice.RingInfo, cat *catalog) error {
	ring := ringFrom(info)
	for i, k := range cat.keys {
		if s, _ := ring.Lookup(k); s != cat.shardOf[i] {
			return fmt.Errorf("placement: key %s is on shard %d, inputs assumed %d", k, s, cat.shardOf[i])
		}
	}
	return nil
}

// writeTrace writes the traced run's spans under $PERFBENCH_OUT, when set.
func writeTrace(workload string, spans []span) error {
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.tsv"))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
