package lockservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcdp/internal/graph"
	"mcdp/internal/shard"
	"mcdp/internal/wire"
)

func startRouter(t *testing.T, shards int, base Config) *Router {
	t.Helper()
	rt := NewRouter(RouterConfig{Shards: shards, Base: base})
	rt.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rt.Stop(ctx)
	})
	return rt
}

// catalog returns generic resource names ("res-i"), which hash onto
// ring shards and then onto each shard's edges.
func catalog(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("res-%d", i)
	}
	return out
}

// TestRouterEndToEnd drives a 2-shard router over HTTP with concurrent
// clients: every grant must come from the shard the ring names, carry
// that shard's session prefix, and release cleanly. Run with -race in
// CI (the CI e2e smoke step).
func TestRouterEndToEnd(t *testing.T) {
	rt := startRouter(t, 2, fastConfig(graph.Grid(2, 3)))
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	info := NewClient(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ring, err := info.Ring(ctx)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	if ring.Shards != 2 || ring.Generation != 2 || len(ring.Members) != 2 {
		t.Fatalf("ring info: %+v", ring)
	}
	// The client-side replica of the ring must agree with the server.
	local := shard.New(ring.Seed, ring.Vnodes)
	for _, m := range ring.Members {
		if err := local.Add(m); err != nil {
			t.Fatal(err)
		}
	}

	names := catalog(16)
	byShard := rt.ShardKeys(names)
	if len(byShard) != 2 {
		t.Fatalf("catalog of 16 names landed on %d shards, want 2", len(byShard))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(hs.URL)
			for i := 0; i < 8; i++ {
				name := names[(w*8+i)%len(names)]
				want, _ := local.Lookup(name)
				grant, err := c.Acquire(ctx, []string{name}, 10*time.Second, 0)
				if err != nil {
					errs <- fmt.Errorf("acquire %q: %w", name, err)
					return
				}
				if !strings.HasPrefix(grant.SessionID, fmt.Sprintf("k%d:", want)) {
					errs <- fmt.Errorf("grant for %q has session %q, want shard %d prefix", name, grant.SessionID, want)
					return
				}
				if err := c.Release(ctx, grant.SessionID); err != nil {
					errs <- fmt.Errorf("release %q: %w", grant.SessionID, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	rep, err := info.Status(ctx)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if rep.Shards != 2 || len(rep.Reports) != 2 || rep.Grants != 48 {
		t.Fatalf("aggregate status: shards=%d reports=%d grants=%d", rep.Shards, len(rep.Reports), rep.Grants)
	}
	if rep.Workers != 12 {
		t.Fatalf("aggregate workers = %d, want 12", rep.Workers)
	}
	for i, sub := range rep.Reports {
		if sub.ShardID != i || sub.RingGen != 2 {
			t.Fatalf("sub-report %d: shard_id=%d ring_gen=%d", i, sub.ShardID, sub.RingGen)
		}
	}

	text, err := info.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"dinerd_router_ring_generation 2",
		"dinerd_router_shard_requests_total{shard=\"0\"}",
		"dinerd_router_shard_requests_total{shard=\"1\"}",
		"dinerd_grants_total 48",
		`shard="1"`,
		"dinerd_acquire_wait_seconds_count 48",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("merged metrics missing %q:\n%s", want, text)
		}
	}
}

// spanningPair returns one key per shard of a 2-shard router, from the
// generic catalog — a deliberately shard-spanning resource set.
func spanningPair(t *testing.T, rt *Router) []string {
	t.Helper()
	byShard := rt.ShardKeys(catalog(32))
	if len(byShard[0]) == 0 || len(byShard[1]) == 0 {
		t.Fatalf("catalog did not cover both shards: %v", byShard)
	}
	return []string{byShard[0][0], byShard[1][0]}
}

// TestRouterSpanAcquire: a resource set spanning shards acquires
// all-or-nothing through the span protocol — one span session backed
// by a sub-lease per shard, exclusive against overlapping spans,
// renewable and releasable as a unit, over both the Go API and HTTP.
func TestRouterSpanAcquire(t *testing.T) {
	rt := startRouter(t, 2, fastConfig(graph.Grid(2, 2)))
	pair := spanningPair(t, rt)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	grant, err := rt.Acquire(ctx, pair, 0, 0)
	if err != nil {
		t.Fatalf("span acquire %v: %v", pair, err)
	}
	if !strings.HasPrefix(grant.SessionID, "span:") {
		t.Fatalf("span grant session %q lacks span: prefix", grant.SessionID)
	}
	if len(grant.Resources) != 2 || grant.Resources[0] != pair[0] || grant.Resources[1] != pair[1] {
		t.Fatalf("span grant resources %v, want %v", grant.Resources, pair)
	}
	m := rt.Metrics()
	if a, c, rb := m.SpanAcquires.Load(), m.SpanCommits.Load(), m.SpanRollbacks.Load(); a != 1 || c != 1 || rb != 0 {
		t.Fatalf("span counters after commit: acquires=%d commits=%d rollbacks=%d, want 1/1/0", a, c, rb)
	}
	// Both shards hold exactly one sub-lease.
	for s := 0; s < 2; s++ {
		if got := rt.Shard(s).ActiveLeases(); got != 1 {
			t.Fatalf("shard %d active leases = %d, want 1", s, got)
		}
	}
	// An overlapping span must wait behind it — and time out here.
	short, shortCancel := context.WithTimeout(ctx, 200*time.Millisecond)
	if _, err := rt.Acquire(short, pair, 0, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("overlapping span acquire: err = %v, want ErrTimeout", err)
	}
	shortCancel()
	// Renew covers every sub-lease; release frees both shards.
	if _, err := rt.Renew(grant.SessionID, time.Second); err != nil {
		t.Fatalf("span renew: %v", err)
	}
	if err := rt.Release(grant.SessionID); err != nil {
		t.Fatalf("span release: %v", err)
	}
	for s := 0; s < 2; s++ {
		if got := rt.Shard(s).ActiveLeases(); got != 0 {
			t.Fatalf("shard %d active leases after span release = %d, want 0", s, got)
		}
	}
	if err := rt.Release(grant.SessionID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double span release: err = %v, want ErrNotFound", err)
	}

	// The same protocol over the HTTP facade: acquire, renew, release.
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)
	hg, err := c.Acquire(ctx, pair, 10*time.Second, 0)
	if err != nil {
		t.Fatalf("HTTP span acquire: %v", err)
	}
	if !strings.HasPrefix(hg.SessionID, "span:") {
		t.Fatalf("HTTP span session %q lacks span: prefix", hg.SessionID)
	}
	if _, err := c.Renew(ctx, hg.SessionID, 5*time.Second); err != nil {
		t.Fatalf("HTTP span renew: %v", err)
	}
	if err := c.Release(ctx, hg.SessionID); err != nil {
		t.Fatalf("HTTP span release: %v", err)
	}
}

// TestRouterSingleShardFastPath: a multi-key set owned by one shard
// keeps the pre-span fast path — no prepare lease, no span counters,
// exactly one routed request — pinned under the seeded ring placement.
func TestRouterSingleShardFastPath(t *testing.T) {
	g := graph.Grid(2, 2)
	rt := startRouter(t, 2, fastConfig(g))
	byShard := rt.ShardKeys(catalog(32))

	// Find a same-shard pair that maps to one arbiter session (edges
	// sharing a home). Placement is seed-pinned, so the search is
	// deterministic; searching keeps the test robust to catalog size.
	mapper := NewResourceMapper(g)
	var pair []string
	var home int
	for s := 0; s < 2; s++ {
		keys := byShard[s]
		for i := 0; i < len(keys) && pair == nil; i++ {
			for j := i + 1; j < len(keys) && pair == nil; j++ {
				if _, _, err := mapper.MapSession([]string{keys[i], keys[j]}); err == nil {
					pair = []string{keys[i], keys[j]}
					home = s
				}
			}
		}
	}
	if pair == nil {
		t.Fatal("no single-shard mappable pair in catalog")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	grant, err := rt.Acquire(ctx, pair, 0, 0)
	if err != nil {
		t.Fatalf("single-shard multi-key acquire %v: %v", pair, err)
	}
	if !strings.HasPrefix(grant.SessionID, fmt.Sprintf("k%d:", home)) {
		t.Fatalf("fast-path session %q, want shard %d prefix (no span)", grant.SessionID, home)
	}
	m := rt.Metrics()
	if a := m.SpanAcquires.Load(); a != 0 {
		t.Fatalf("SpanAcquires = %d after single-shard set, want 0 (fast path)", a)
	}
	if c, rb := m.SpanCommits.Load(), m.SpanRollbacks.Load(); c != 0 || rb != 0 {
		t.Fatalf("span commit/rollback counters %d/%d, want 0/0", c, rb)
	}
	if got := m.ShardRequests[home].Load(); got != 1 {
		t.Fatalf("ShardRequests[%d] = %d, want exactly 1 (no extra round trips)", home, got)
	}
	if got := m.ShardRequests[1-home].Load(); got != 0 {
		t.Fatalf("ShardRequests[%d] = %d, want 0", 1-home, got)
	}
	// One lease, not one per key: the fast path never split the set.
	if got := rt.Shard(home).ActiveLeases(); got != 1 {
		t.Fatalf("shard %d active leases = %d, want 1", home, got)
	}
	if err := rt.Release(grant.SessionID); err != nil {
		t.Fatalf("release: %v", err)
	}
}

// TestRouterSpanRollbackOnPrepareExpiry: a prepare lease that
// TTL-expires while the span waits on a later shard must be rolled
// back — every sub-lease released, dinerd_span_rollback_total emitted —
// and the client sees one clean failure, not a partial grant.
func TestRouterSpanRollbackOnPrepareExpiry(t *testing.T) {
	rt := NewRouter(RouterConfig{
		Shards:     2,
		Base:       fastConfig(graph.Grid(2, 2)),
		PrepareTTL: 50 * time.Millisecond, // expires well inside the blocked wait below
	})
	rt.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rt.Stop(ctx)
	})
	pair := spanningPair(t, rt)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	// A holder pins the shard-1 key, so the span prepares on shard 0
	// and then blocks on shard 1 past its 50ms prepare budget.
	holder := NewClient(hs.URL)
	held, err := holder.Acquire(ctx, []string{pair[1]}, 10*time.Second, 0)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}

	spanClient := NewClient(hs.URL)
	_, err = spanClient.Acquire(ctx, pair, 600*time.Millisecond, 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("blocked span acquire: err = %v, want 408", err)
	}

	m := rt.Metrics()
	if got := m.SpanRollbacks.Load(); got != 1 {
		t.Fatalf("SpanRollbacks = %d, want 1", got)
	}
	if got := m.SpanCommits.Load(); got != 0 {
		t.Fatalf("SpanCommits = %d, want 0", got)
	}
	// The janitor expired the abandoned prepare; rollback released any
	// residue. Only the holder's lease remains anywhere.
	if got := rt.Shard(0).ActiveLeases(); got != 0 {
		t.Fatalf("shard 0 active leases after rollback = %d, want 0", got)
	}
	if got := rt.Shard(1).ActiveLeases(); got != 1 {
		t.Fatalf("shard 1 active leases = %d, want 1 (the holder)", got)
	}
	if got := rt.Shard(0).Metrics().Expirations.Load(); got < 1 {
		t.Fatal("shard 0 recorded no lease expiration for the lost prepare")
	}

	// The new counter is on the merged exposition.
	text, err := NewClient(hs.URL).Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"dinerd_span_rollback_total 1",
		"dinerd_span_acquires_total 1",
		"dinerd_span_commits_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("merged metrics missing %q:\n%s", want, text)
		}
	}
	if err := holder.Release(ctx, held.SessionID); err != nil {
		t.Fatalf("holder release: %v", err)
	}
}

// TestRouterWrongShardRetry: a client that resolved placement under a
// stale ring generation is bounced with 409 carrying the live
// generation, and its retry loop recovers without operator help. Also
// covers release-after-ring-leave: a lease granted by a shard stays
// releasable after the shard leaves the ring.
// TestRouterSpanAbortOnPrepareLostMidSpan exercises the span
// protocol's OTHER rollback trigger: not a sub-acquire failure, but a
// prepare lease lost while a later shard was still being acquired. The
// shard-0 prepare (50ms TTL) is swept by the janitor while the span
// blocks behind a holder on shard 1; when the holder releases and the
// shard-1 sub-acquire finally succeeds, the refresh loop finds the
// shard-0 prepare gone and must abort the whole span, releasing the
// fresh shard-1 grant too — no sub-lease may survive an aborted span
// on any shard.
func TestRouterSpanAbortOnPrepareLostMidSpan(t *testing.T) {
	rt := NewRouter(RouterConfig{
		Shards:     2,
		Base:       fastConfig(graph.Grid(2, 2)),
		PrepareTTL: 50 * time.Millisecond, // swept by the 100ms janitor during the blocked wait
	})
	rt.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rt.Stop(ctx)
	})
	pair := spanningPair(t, rt)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	held, err := rt.Acquire(ctx, []string{pair[1]}, 10*time.Second, 0)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	// Release the holder only after the janitor has certainly swept the
	// span's shard-0 prepare (two full janitor periods past its TTL).
	go func() {
		time.Sleep(400 * time.Millisecond)
		if err := rt.Release(held.SessionID); err != nil {
			t.Errorf("holder release: %v", err)
		}
	}()

	_, err = rt.Acquire(ctx, pair, 10*time.Second, 0)
	if !errors.Is(err, ErrSpanAborted) {
		t.Fatalf("span acquire after lost prepare: err = %v, want ErrSpanAborted", err)
	}
	if !strings.Contains(err.Error(), "mid-span") {
		t.Fatalf("abort error %q does not name the mid-span refresh path", err)
	}

	m := rt.Metrics()
	if got := m.SpanRollbacks.Load(); got != 1 {
		t.Fatalf("SpanRollbacks = %d, want 1", got)
	}
	if got := m.SpanCommits.Load(); got != 0 {
		t.Fatalf("SpanCommits = %d, want 0", got)
	}
	for s := 0; s < 2; s++ {
		if got := rt.Shard(s).ActiveLeases(); got != 0 {
			t.Fatalf("shard %d active leases after span abort = %d, want 0", s, got)
		}
	}
}

func TestRouterWrongShardRetry(t *testing.T) {
	rt := startRouter(t, 2, fastConfig(graph.Grid(2, 2)))
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	byShard := rt.ShardKeys(catalog(32))
	onShard1 := byShard[1][0]

	c := NewClient(hs.URL)
	c.Backoff = time.Millisecond
	if _, err := c.Ring(ctx); err != nil {
		t.Fatalf("Ring: %v", err)
	}
	if c.RingGen() != 2 {
		t.Fatalf("cached generation %d, want 2", c.RingGen())
	}
	// A lease on shard 1, held across the ring change.
	held, err := c.Acquire(ctx, []string{onShard1}, 10*time.Second, 0)
	if err != nil {
		t.Fatalf("acquire before ring change: %v", err)
	}

	if err := rt.RingLeave(1); err != nil {
		t.Fatalf("RingLeave: %v", err)
	}
	// The client's cached generation (2) is now stale (3): the first
	// attempt draws a 409, the retry adopts generation 3 and must land on
	// shard 0 — the only ring member left.
	grant, err := c.Acquire(ctx, []string{onShard1}, 10*time.Second, 0)
	if err != nil {
		t.Fatalf("acquire after ring change: %v", err)
	}
	if !strings.HasPrefix(grant.SessionID, "k0:") {
		t.Fatalf("post-leave grant %q not on shard 0", grant.SessionID)
	}
	if got := rt.Metrics().WrongShardRejections.Load(); got < 1 {
		t.Fatal("no wrong-shard rejection recorded")
	}
	if c.RingGen() != 3 {
		t.Fatalf("client generation after retry = %d, want 3", c.RingGen())
	}
	if err := c.Release(ctx, grant.SessionID); err != nil {
		t.Fatalf("release: %v", err)
	}
	// The old lease's shard prefix still routes its release.
	if err := c.Release(ctx, held.SessionID); err != nil {
		t.Fatalf("release on departed ring member: %v", err)
	}

	// Rejoin restores the original placement and refuses nonsense.
	if err := rt.RingJoin(1); err != nil {
		t.Fatalf("RingJoin: %v", err)
	}
	if err := rt.RingJoin(1); err == nil {
		t.Fatal("double ring join accepted")
	}
	if err := rt.RingJoin(7); err == nil {
		t.Fatal("ring join of unknown shard accepted")
	}
	if err := rt.RingLeave(0); err != nil {
		t.Fatalf("RingLeave(0): %v", err)
	}
	if err := rt.RingLeave(1); err == nil {
		t.Fatal("removing the last ring member accepted")
	}
}

// TestRouterAcquireInputBounds holds HTTP acquires to the wire codec's
// bounds: too many resources or too long a name is 400 before Acquire
// routes anything, and a body over maxBodyBytes is 413.
func TestRouterAcquireInputBounds(t *testing.T) {
	rt := startRouter(t, 2, fastConfig(graph.Grid(2, 3)))
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	routed := func() (n int64) {
		for i := range rt.Metrics().ShardRequests {
			n += rt.Metrics().ShardRequests[i].Load()
		}
		return n
	}
	for _, tc := range []struct {
		name      string
		resources []string
		want      int // 0: anything but 400
	}{
		{"65 resources", catalog(wire.MaxResources + 1), http.StatusBadRequest},
		{"513-byte name", []string{strings.Repeat("x", wire.MaxResNameLen+1)}, http.StatusBadRequest},
		{"70 KiB body", []string{strings.Repeat("x", 70<<10)}, http.StatusRequestEntityTooLarge},
		{"64 valid names", catalog(wire.MaxResources), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(AcquireRequest{Resources: tc.resources, TimeoutMS: 500})
			if err != nil {
				t.Fatal(err)
			}
			before := routed()
			resp, err := http.Post(hs.URL+"/v1/acquire", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if tc.want == 0 {
				if resp.StatusCode == http.StatusBadRequest {
					t.Fatalf("%d in-bound names rejected with 400", len(tc.resources))
				}
				var grant AcquireResponse
				if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&grant) == nil {
					_ = rt.Release(grant.SessionID)
				}
				return
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			if after := routed(); after != before {
				t.Fatalf("rejected acquire was routed: shard requests %d -> %d", before, after)
			}
		})
	}
}
