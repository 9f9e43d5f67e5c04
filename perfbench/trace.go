package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public function. Times are nanoseconds since the run
// started. Spans of one request share req; parent is the index of the
// span that caused this one, or -1.
type span struct {
	name       string
	start, end int64
	parent     int
	req        int64
	// session links a backend span to the client call that carried it;
	// the backend never sees the client's request ID, but both sides
	// see the session the grant created.
	session string
	// wait is the grant's server-side wait (GrantInfo.Wait) on backend
	// acquire spans.
	wait int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends. Recording is
// switched on only for the traced window; while it is off, add costs
// one atomic load.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span // guarded by mu
}

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// interval is a closed-open time range [start, end).
type interval struct{ start, end int64 }

// selfTime is the parent's duration minus the part of it its children
// cover. Children may overlap each other and stick out of the parent;
// only the union of their intersections with the parent counts.
func selfTime(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	for _, c := range cs {
		if cur.end < 0 || c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// linkBySession makes each backend span a child of the client span that
// carries the same session and name, copying the client's request ID.
// It returns how many backend spans found a parent; a backend span
// whose call failed has no session and stays unlinked.
func linkBySession(spans []span, clientName, backendName string) int {
	parent := make(map[string]int)
	for i, s := range spans {
		if s.name == clientName && s.session != "" {
			parent[s.session] = i
		}
	}
	linked := 0
	for i := range spans {
		s := &spans[i]
		if s.name != backendName || s.session == "" {
			continue
		}
		if p, ok := parent[s.session]; ok {
			s.parent = p
			s.req = spans[p].req
			linked++
		}
	}
	return linked
}

// childIntervals groups the intervals of every span with a parent by
// that parent's index.
func childIntervals(spans []span) map[int][]interval {
	out := make(map[int][]interval)
	for _, s := range spans {
		if s.parent >= 0 {
			out[s.parent] = append(out[s.parent], interval{s.start, s.end})
		}
	}
	return out
}

// writeSpans writes one span a line, tab-separated:
// index, name, start_ns, end_ns, parent, req.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "index\tname\tstart_ns\tend_ns\tparent\treq")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.parent, s.req)
	}
	return bw.Flush()
}
