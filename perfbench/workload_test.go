package main

import (
	"reflect"
	"testing"
)

func genFor(t *testing.T, w workload, seed int64) *inputs {
	t.Helper()
	cfg := w.routerConfig(nil, logf)
	cat := newCatalog(placementRing(cfg), w.shards, w.graph())
	return generate(w, cat, seed, 0)
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := genFor(t, w, 7), genFor(t, w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		c := genFor(t, w, 8)
		if reflect.DeepEqual(a.streams, c.streams) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", w.name)
		}
		cfg := w.routerConfig(nil, logf)
		if next := generate(w, newCatalog(placementRing(cfg), w.shards, w.graph()), 7, 1); reflect.DeepEqual(a.streams, next.streams) {
			t.Errorf("%s: segments 0 and 1 of one seed gave the same requests", w.name)
		}
		if w.kills > 0 && reflect.DeepEqual(a.kills, c.kills) {
			t.Errorf("%s: seeds 7 and 8 gave the same kill offsets", w.name)
		}
	}
}

func TestInputsMatchTheWorkloadShape(t *testing.T) {
	for _, w := range workloads {
		in := genFor(t, w, 1)
		var reqs []request
		for _, s := range in.streams {
			reqs = append(reqs, s...)
		}
		if len(in.streams) != w.callers {
			t.Errorf("%s: %d streams for %d callers", w.name, len(in.streams), w.callers)
		}
		spans, pairs := 0, 0
		for _, r := range reqs {
			switch {
			case r.isSpan(in.cat):
				spans++
			case r.n == 2:
				pairs++
			}
		}
		if w.span == 0 && spans > 0 {
			t.Errorf("%s: %d cross-shard requests in a workload without spans", w.name, spans)
		}
		if got := float64(spans) / float64(len(reqs)); w.span > 0 && (got < w.span-0.02 || got > w.span+0.02) {
			t.Errorf("%s: span share %.3f, want %.2f", w.name, got, w.span)
		}
		if w.pair == 0 && pairs > 0 {
			t.Errorf("%s: %d pairs in a single-key workload", w.name, pairs)
		}
		if len(in.kills) != w.kills {
			t.Errorf("%s: %d kills, want %d", w.name, len(in.kills), w.kills)
		}
		for i, k := range in.kills {
			if k <= 0 || k >= probeLen || (i > 0 && k <= in.kills[i-1]) {
				t.Errorf("%s: kill offsets %v are not increasing inside the probe", w.name, in.kills)
			}
		}
	}
}

func TestZipfHeadLandsOnOneShard(t *testing.T) {
	w, _ := workloadByName("zipf-hot")
	in := genFor(t, w, 1)
	perShard := make([]int, w.shards)
	for _, s := range in.streams {
		for _, r := range s {
			perShard[in.cat.shardOf[r.keys[0]]]++
		}
	}
	first := in.cat.shardOf[in.cat.order[0]]
	for s, n := range perShard {
		if s != first && n >= perShard[first] {
			t.Fatalf("per-shard draws %v: shard %d is not the hottest", perShard, first)
		}
	}
}

// isSpan reports whether the request's keys live on more than one shard.
func (r request) isSpan(c *catalog) bool {
	for i := 1; i < int(r.n); i++ {
		if c.shardOf[r.keys[i]] != c.shardOf[r.keys[0]] {
			return true
		}
	}
	return false
}
