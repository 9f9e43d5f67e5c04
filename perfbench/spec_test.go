package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

type specFile struct {
	Workloads []struct {
		Name     string
		Callers  int
		Shards   int
		Standbys int
		Pair     float64
		Span     float64
		HoldMS   float64 `json:"hold_ms"`
		Kills    int
		WarmupS  float64 `json:"warmup_s"`
		Why      string
	}
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct {
		Layer   string
		Metrics []string
	} `json:"per_layer"`
	WorkloadSpecific struct {
		Metrics []struct{ Name string }
	} `json:"workload_specific"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestSpecMatchesBenchmarkAndProgram(t *testing.T) {
	var b benchmarkFile
	var s specFile
	readJSON(t, "../BENCHMARK.json", &b)
	readJSON(t, "spec.json", &s)
	if len(b.Workloads) != len(workloads) || len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.json, %d in the program", len(b.Workloads), len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		sw := s.Workloads[i]
		if b.Workloads[i].Name != w.name || sw.Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in spec.json, %q in the program", i, b.Workloads[i].Name, sw.Name, w.name)
		}
		if sw.Why != w.why {
			t.Errorf("%s: spec.json and the program give different reasons", w.name)
		}
		if sw.Callers != w.callers || sw.Shards != w.shards || sw.Standbys != w.standbys ||
			sw.Pair != w.pair || sw.Span != w.span || sw.HoldMS != float64(w.hold.Milliseconds()) ||
			sw.Kills != w.kills || sw.WarmupS != w.warmup.Seconds() {
			t.Errorf("%s: spec.json parameters %+v differ from the program's %+v", w.name, sw, w)
		}
	}
	if len(s.EndToEnd) != len(b.EndToEnd) {
		t.Fatalf("%d end-to-end metrics in spec.json, %d in BENCHMARK.json", len(s.EndToEnd), len(b.EndToEnd))
	}
	for i, m := range b.EndToEnd {
		if sm := s.EndToEnd[i]; sm.Name != m.Name || sm.Unit != m.Unit || sm.Better != m.Better {
			t.Errorf("end-to-end metric %d: spec.json %+v, BENCHMARK.json %+v", i, sm, m)
		}
	}
	var mapped []string
	for _, l := range s.PerLayer {
		mapped = append(mapped, l.Metrics...)
	}
	var listed []string
	for _, m := range b.PerLayer {
		listed = append(listed, m.Name)
	}
	sort.Strings(mapped)
	sort.Strings(listed)
	if len(mapped) != len(listed) {
		t.Fatalf("spec.json maps %d per-layer metrics, BENCHMARK.json lists %d", len(mapped), len(listed))
	}
	for i := range listed {
		if mapped[i] != listed[i] {
			t.Fatalf("per-layer metrics differ: spec.json %v, BENCHMARK.json %v", mapped, listed)
		}
	}
}

// TestRunReportsEveryBenchmarkMetric runs every workload briefly in
// both modes and checks that the result carries exactly the metrics
// BENCHMARK.json lists, with their units, and that the checks pass.
func TestRunReportsEveryBenchmarkMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var b benchmarkFile
	readJSON(t, "../BENCHMARK.json", &b)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, code, err := run(io.Discard, w, 1, 2*time.Second, traced)
			if err != nil || code != 0 {
				t.Fatalf("%s traced=%v: exit %d: %v", w.name, traced, code, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d", w.name, traced, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want[traced]))
			}
			for name, unit := range want[traced] {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, name, got, unit)
				}
			}
		}
	}
}
