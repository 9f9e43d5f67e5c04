package lockservice

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite the exposition golden files under testdata/")

// maskExposition keeps everything of a Prometheus text exposition but
// its sample values: the # HELP and # TYPE lines, every sample's name
// and label set, and the order of all of them. Values move with load
// and time; the shape is the contract.
func maskExposition(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if sp := strings.LastIndexByte(line, ' '); sp > 0 {
				line = line[:sp] + " _"
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares a masked exposition against testdata/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, text string) {
	t.Helper()
	got := maskExposition(text)
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d differs:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestExpositionGolden pins the names, label sets, HELP and TYPE lines
// and sample order of the three /metrics writers: a single server, a
// replicated two-shard router (the merged exposition), and the wire
// listener's counters.
func TestExpositionGolden(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		s := startServer(t, fastConfig(graph.Grid(2, 2)))
		var buf bytes.Buffer
		s.WriteMetrics(&buf)
		checkGolden(t, "server.metrics", buf.String())
	})
	t.Run("router", func(t *testing.T) {
		rt := startReplicatedRouter(t, 2, 1, fastFailover(&logCapture{}))
		var buf bytes.Buffer
		rt.WriteMetrics(&buf)
		checkGolden(t, "router.metrics", buf.String())
	})
	t.Run("wire", func(t *testing.T) {
		s := NewServer(fastConfig(graph.Grid(2, 2)))
		ws := wire.NewServer(wire.ServerConfig{Backend: s.WireBackend()})
		var buf bytes.Buffer
		ws.WritePrometheus(&buf)
		checkGolden(t, "wire.metrics", buf.String())
	})
}

// BenchmarkRouterWriteMetrics measures one merged /metrics scrape of a
// four-shard, one-standby router over grid(3x3) shards. The substrate
// ticks every 2ms, as in perfbench, so its background work stays small
// next to the scrape.
func BenchmarkRouterWriteMetrics(b *testing.B) {
	base := fastConfig(graph.Grid(3, 3))
	base.TickEvery = 2 * time.Millisecond
	rt := NewRouter(RouterConfig{Shards: 4, Replicas: 1, Base: base})
	rt.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Stop(ctx)
	}()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		rt.WriteMetrics(&buf)
	}
	b.SetBytes(int64(buf.Len()))
}

// TestRouterMergedCounterIsInteger sums a counter of at least 1e6
// across shards and requires an integer literal, not 1.3e+06: scrapers
// that parse counters as integers would drop the exponent form.
func TestRouterMergedCounterIsInteger(t *testing.T) {
	rt := startRouter(t, 2, fastConfig(graph.Grid(2, 2)))
	rt.Shard(0).Metrics().Grants.Add(700_000)
	rt.Shard(1).Metrics().Grants.Add(600_000)
	var buf bytes.Buffer
	rt.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "\ndinerd_grants_total 1300000\n") {
		t.Fatalf("merged grants counter not an integer literal:\n%s", buf.String())
	}
}

// TestMetricsDocumented requires every family of the golden
// expositions to appear in docs/DINERD.md's /metrics tables.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "DINERD.md"))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.metrics"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden expositions (%v)", err)
	}
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(text), "\n") {
			rest, ok := strings.CutPrefix(line, "# TYPE ")
			if !ok {
				continue
			}
			name, _, _ := strings.Cut(rest, " ")
			if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).Match(doc) {
				t.Errorf("%s: family %s is not documented in docs/DINERD.md", path, name)
			}
		}
	}
}
