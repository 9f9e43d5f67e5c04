package main

import (
	"strings"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 30}}, 80},
		{"overlapping children count once", []interval{{10, 50}, {40, 60}, {45, 55}}, 50},
		{"child sticking out is clipped", []interval{{-20, 10}, {90, 150}}, 80},
		{"disjoint children", []interval{{0, 10}, {20, 30}, {90, 100}}, 70},
		{"child outside the parent", []interval{{200, 300}}, 100},
		{"child covering the parent", []interval{{-1, 101}, {10, 20}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLinkBySession(t *testing.T) {
	spans := []span{
		{name: "wire.acquire", start: 0, end: 100, parent: -1, req: 7, session: "k0:s1"},
		{name: "wire.acquire", start: 5, end: 50, parent: -1, req: 8, session: "k1:s1"},
		{name: "router.acquire", start: 60, end: 90, parent: -1, req: -1, session: "k1:s1"},
		{name: "router.acquire", start: 10, end: 80, parent: -1, req: -1, session: "k0:s1"},
		{name: "router.acquire", start: 20, end: 30, parent: -1, req: -1}, // failed call: no session
		{name: "router.release", start: 95, end: 99, parent: -1, req: -1, session: "k0:s1"},
	}
	if n := linkBySession(spans, "wire.acquire", "router.acquire"); n != 2 {
		t.Fatalf("linked %d backend spans, want 2", n)
	}
	if spans[3].parent != 0 || spans[3].req != 7 {
		t.Fatalf("k0:s1 backend span = parent %d req %d, want 0 and 7", spans[3].parent, spans[3].req)
	}
	if spans[2].parent != 1 || spans[2].req != 8 {
		t.Fatalf("k1:s1 backend span = parent %d req %d, want 1 and 8", spans[2].parent, spans[2].req)
	}
	if spans[4].parent != -1 {
		t.Fatal("a backend span without a session was linked")
	}
	if spans[5].parent != -1 {
		t.Fatal("a release span was linked to an acquire")
	}
	kids := childIntervals(spans)
	if got := selfTime(interval{spans[0].start, spans[0].end}, kids[0]); got != 30 {
		t.Fatalf("wire self time of request 7 = %d, want 30", got)
	}
}

func TestRecorderOnlyRecordsWhileOn(t *testing.T) {
	var r recorder
	r.add(span{name: "off"})
	r.on.Store(true)
	r.add(span{name: "on"})
	got := r.take()
	if len(got) != 1 || got[0].name != "on" {
		t.Fatalf("recorded %v, want only the span added while on", got)
	}
	var b strings.Builder
	if err := writeSpans(&b, got); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != 2 {
		t.Fatalf("wrote %d lines, want a header and one span", lines)
	}
}
