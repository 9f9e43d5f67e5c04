package lockservice

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/shard"
	"mcdp/internal/stats"
)

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Shards is the number of independent arbiter shards (default 1).
	Shards int
	// Vnodes is the ring's virtual-node count per shard (default
	// shard.DefaultVnodes).
	Vnodes int
	// Base is the per-shard server config template. Each shard gets a
	// copy with ShardID set to its index and Seed offset by it, so the
	// shards' msgpass substrates draw distinct randomness streams.
	// Base.History, when set, taps shard 0 only — the history checker
	// judges one arbiter at a time.
	Base Config
	// PrepareTTL bounds how long a cross-shard span may hold an early
	// sub-lease before the whole span commits. Every prepare is
	// refreshed back to this budget after each downstream sub-acquire,
	// so it only needs to cover ONE shard's wait plus slack — not the
	// span's total latency. Default: Base.DefaultTimeout + 1s.
	PrepareTTL time.Duration
	// Replicas is the number of hot standbys per shard (default 0: no
	// replication, failure of a shard's server is failure of the
	// shard). With replicas, every shard's lease-table deltas stream to
	// its standbys, and the router's shard supervisor promotes the
	// freshest standby when the primary misses health checks.
	Replicas int
	// Failover tunes detection and promotion when Replicas > 0.
	Failover FailoverConfig
	// Rebalance, when set, closes the hot-key feedback loop: the router
	// feeds every grant into per-shard control sensors and runs the
	// controller periodically, migrating hot keys between shards under
	// the generation protocol. Nil (the default) disables sensing and
	// the loop entirely — the grant path pays nothing.
	Rebalance *control.Config
	// MigrationDrain bounds how long a key migration waits for the
	// source shard's live leases on the key to release or expire before
	// aborting. Default: Base.DefaultTTL + 500ms.
	MigrationDrain time.Duration
}

// RouterMetrics counts the router's own routing decisions; per-shard
// service metrics live on each shard's Server.
type RouterMetrics struct {
	WrongShardRejections atomic.Int64
	// SpanAcquires counts acquires whose resource set spanned shards
	// and entered the prepare/commit protocol; single-shard sets take
	// the direct fast path and are not counted here.
	SpanAcquires atomic.Int64
	// SpanCommits counts spans whose every sub-lease was promoted to
	// the client's TTL atomically.
	SpanCommits atomic.Int64
	// SpanRollbacks counts spans (or span renewals) that released early
	// sub-leases after a sub-acquire failure, a lost prepare, or a
	// fenced sub-lease.
	SpanRollbacks atomic.Int64
	// ShardRequests counts acquire requests routed to each shard.
	ShardRequests []atomic.Int64
	// Failovers counts completed standby promotions across all shards.
	Failovers atomic.Int64
	// LeaderlessRejections counts requests bounced with 503+Retry-After
	// while a shard had no serving primary.
	LeaderlessRejections atomic.Int64
	// Rebalances counts committed key migrations (override installed
	// after a clean drain); RebalancesAborted counts migrations that
	// fenced a key but timed out waiting for its leases to drain and
	// rolled the fence back.
	Rebalances        atomic.Int64
	RebalancesAborted atomic.Int64
	// MigrationFences counts acquires bounced (409) because a requested
	// key was fenced by an in-flight migration or had moved between
	// placement resolution and grant.
	MigrationFences atomic.Int64

	// PromotionHist observes promotion latency (decision to serving) in
	// seconds; promMu/promotions keep the raw durations so the bench
	// harness can report an exact p99 MTTR, capped to keep long chaos
	// runs bounded.
	PromotionHist *stats.LatencyHistogram
	promMu        sync.Mutex      //lint:order rank lockservice 60
	promotions    []time.Duration // guarded by promMu
}

// maxPromotionSamples bounds the raw promotion-duration buffer.
const maxPromotionSamples = 4096

// observePromotion records one promotion's latency.
func (m *RouterMetrics) observePromotion(d time.Duration) {
	m.PromotionHist.Observe(d.Seconds())
	m.promMu.Lock()
	if len(m.promotions) < maxPromotionSamples {
		m.promotions = append(m.promotions, d)
	}
	m.promMu.Unlock()
}

// PromotionDurations returns the raw recorded promotion latencies.
func (m *RouterMetrics) PromotionDurations() []time.Duration {
	m.promMu.Lock()
	defer m.promMu.Unlock()
	return append([]time.Duration(nil), m.promotions...)
}

// Router fronts N independent arbiter shards with a consistent-hash
// ring: each resource name hashes to one shard, whose diners core
// arbitrates it with no coordination with the others. A resource set
// that lands on one shard acquires directly there; a set that spans
// shards goes through the span protocol — per-shard sub-sessions
// acquired in ascending shard order (a deterministic total order, so
// two spans contending for overlapping shards can never deadlock),
// early grants held under a TTL-fenced prepare lease, then every
// sub-lease promoted to the client's TTL at commit or released at
// rollback. A client that resolved placement under a stale ring
// generation is bounced with 409 so it re-resolves before retrying.
//
// Ring membership changes (RingLeave/RingJoin) redirect new placements
// only: leases already granted by a departing shard stay valid on that
// shard until released or expired, and the session-ID shard prefix
// keeps their releases routable throughout.
type Router struct {
	cfg     RouterConfig
	sets    []*replicaSet
	fo      FailoverConfig
	metrics *RouterMetrics

	// ctl is the hot-key feedback controller (nil unless
	// RouterConfig.Rebalance is set); advice caches its latest derived
	// tuning for the 429 Retry-After hint.
	ctl    *control.Controller
	advice atomic.Pointer[control.Advice]

	done chan struct{}
	wg   sync.WaitGroup

	mu          sync.Mutex            //lint:order rank lockservice 10
	ring        *shard.Ring           // guarded by mu
	migrating   map[string]*migration // guarded by mu
	overrideGen uint64                // guarded by mu

	// gen mirrors ring.Generation(), published by pushRingGen after
	// every ring mutation, so hot-path generation reads (the acquire
	// pre-check and post-grant check) pay one atomic load instead of
	// taking mu.
	gen atomic.Uint64
}

// migration is one in-flight key move: from fence to override install
// (or abort), acquires naming key are bounced with 409 so the source
// shard's leases on it can drain. deadline bounds the fence even if
// the migrating goroutine dies mid-drain — routing treats an expired
// entry as absent, so a wedged migration cannot fence a key forever.
type migration struct {
	key      string
	src, dst int
	deadline time.Time
}

// NewRouter builds a router and its shard servers — with
// cfg.Replicas > 0, each shard gets that many hot standbys wired into
// a replica set. No goroutines start until Start.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	r := &Router{
		cfg:       cfg,
		fo:        cfg.Failover.withDefaults(),
		metrics:   &RouterMetrics{ShardRequests: make([]atomic.Int64, cfg.Shards), PromotionHist: stats.NewLatencyHistogram(stats.DefaultLatencyBounds())},
		ring:      shard.New(uint64(cfg.Base.Seed), cfg.Vnodes),
		migrating: make(map[string]*migration),
		done:      make(chan struct{}),
	}
	if cfg.Rebalance != nil {
		cc := *cfg.Rebalance
		cc.Shards = cfg.Shards
		r.ctl = control.New(cc)
	}
	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.Base
		scfg.ShardID = i
		scfg.Seed = cfg.Base.Seed + int64(i)
		if i > 0 {
			scfg.History = nil
		}
		primary := NewServer(scfg)
		var standbys []*Server
		for j := 0; j < cfg.Replicas; j++ {
			sbcfg := scfg
			// Standbys keep the shard ID (session prefixes must stay
			// routable after promotion) but draw distinct substrate
			// randomness, and never tap the history checker — their
			// arbiter is idle until promoted.
			sbcfg.Seed = scfg.Seed + int64(1000*(j+1))
			sbcfg.History = nil
			standbys = append(standbys, NewServer(sbcfg))
		}
		r.sets = append(r.sets, newReplicaSet(i, primary, standbys,
			r.fo.AckTimeout, r.fo.StaleAfter, r.fo.CheckEvery))
		if err := r.ring.Add(i); err != nil {
			panic(err) // fresh ring, dense ids: unreachable
		}
	}
	r.pushRingGen()
	return r
}

// pushRingGen publishes the current ring generation to every member
// server of every shard (standbys included, so a freshly promoted
// primary already reports the right epoch).
//
// requires mu
func (r *Router) pushRingGen() {
	gen := r.ring.Generation()
	r.gen.Store(gen)
	for _, set := range r.sets {
		for _, s := range set.servers() {
			s.SetRingGen(gen)
		}
	}
}

// Start starts every member server of every shard, plus the shard
// supervisor when replicas are configured.
func (r *Router) Start() {
	for _, set := range r.sets {
		for _, s := range set.servers() {
			s.Start()
		}
	}
	if r.cfg.Replicas > 0 {
		r.wg.Add(1)
		go r.superviseShards()
	}
	if r.ctl != nil {
		r.wg.Add(1)
		go r.rebalanceLoop()
	}
}

// Stop halts the shard supervisor, tears down replication streams, and
// drains every member server concurrently under the shared context.
func (r *Router) Stop(ctx context.Context) {
	select {
	case <-r.done:
	default:
		close(r.done)
	}
	r.wg.Wait()
	var wg sync.WaitGroup
	for _, set := range r.sets {
		// Snapshot before stop: it clears the standby list.
		servers := set.servers()
		set.stop()
		for _, s := range servers {
			wg.Add(1)
			go func(s *Server) {
				defer wg.Done()
				s.Stop(ctx)
			}(s)
		}
	}
	wg.Wait()
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.sets) }

// Shard returns shard i's currently serving primary (tests and the
// bench harness); after a failover this is the promoted standby.
func (r *Router) Shard(i int) *Server { return r.sets[i].Primary() }

// ShardInfo reports shard i's failover-facing state.
type ShardInfo struct {
	Shard       int           `json:"shard"`
	Incarnation uint64        `json:"incarnation"`
	Standbys    int           `json:"standbys"`
	Halted      bool          `json:"halted"`
	Lag         uint64        `json:"replication_lag"`
	Hold        time.Duration `json:"-"`
}

// ShardServers returns every server shard i has ever owned — the
// current primary, live standbys, and deposed ex-primaries. The chaos
// harness sweeps it so post-run exclusion verdicts cover servers that
// granted leases before being fenced out, not just the survivor.
func (r *Router) ShardServers(i int) []*Server { return r.sets[i].servers() }

// ShardInfo snapshots shard i's role state (admin surface and tests).
func (r *Router) ShardInfo(i int) ShardInfo {
	set := r.sets[i]
	return ShardInfo{
		Shard:       i,
		Incarnation: set.incarnation(),
		Standbys:    set.standbyCount(),
		Halted:      set.Primary().Halted(),
		Lag:         set.maxLag(),
		Hold:        set.holdRemaining(),
	}
}

// Metrics returns the router's routing counters.
func (r *Router) Metrics() *RouterMetrics { return r.metrics }

// RingInfo describes the ring so clients can replicate placement
// locally: a shard.Ring built from Seed/Vnodes with Members added in
// ascending order reproduces the router's Lookup for every key at this
// Generation.
type RingInfo struct {
	Seed       uint64 `json:"seed"`
	Vnodes     int    `json:"vnodes"`
	Generation uint64 `json:"generation"`
	Shards     int    `json:"shards"`
	Members    []int  `json:"members"`
	// Overrides is the key-level placement override table the
	// rebalancing controller installs; a replica rebuilding the ring
	// must apply it (shard.Ring.SetOverrides) or hot keys resolve to
	// their stale hash homes.
	Overrides map[string]int `json:"overrides,omitempty"`
}

// RingInfo snapshots the current ring.
func (r *Router) RingInfo() RingInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RingInfo{
		Seed:       r.ring.Seed(),
		Vnodes:     r.ring.Vnodes(),
		Generation: r.ring.Generation(),
		Shards:     len(r.sets),
		Members:    r.ring.Members(),
		Overrides:  r.ring.Overrides(),
	}
}

// RingLeave removes shard s from the ring: new placements avoid it,
// its live leases drain in place. The shard's server keeps running so
// those leases stay releasable.
func (r *Router) RingLeave(s int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring.Size() <= 1 {
		return errors.New("lockservice: cannot remove the last ring member")
	}
	if err := r.ring.Remove(s); err != nil {
		return err
	}
	r.pushRingGen()
	return nil
}

// RingJoin readmits shard s to the ring; its old keys return to it
// (virtual-node positions are stable).
func (r *Router) RingJoin(s int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s < 0 || s >= len(r.sets) {
		return fmt.Errorf("lockservice: shard %d out of range [0,%d)", s, len(r.sets))
	}
	if err := r.ring.Add(s); err != nil {
		return err
	}
	r.pushRingGen()
	return nil
}

// fencedLocked reports whether res is fenced by an in-flight key
// migration: new placements for it are refused (409) until the source
// shard's leases drain and the override lands, or the fence's deadline
// expires (the wedged-migration escape hatch).
//
// requires mu
func (r *Router) fencedLocked(res string, now time.Time) *migration {
	m, ok := r.migrating[res]
	if !ok || now.After(m.deadline) {
		return nil
	}
	return m
}

// shardFor resolves a resource set to its owning shard. Every resource
// must hash to the same shard; a spanning set is ErrCrossShard, and a
// resource fenced by an in-flight migration is ErrWrongShard (the
// client re-resolves and retries once the key lands).
func (r *Router) shardFor(resources []string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(resources) == 0 {
		return 0, fmt.Errorf("%w: empty resource set", ErrUnmappable)
	}
	now := time.Now()
	home := -1
	for _, res := range resources {
		if m := r.fencedLocked(res, now); m != nil {
			r.metrics.MigrationFences.Add(1)
			return 0, fmt.Errorf("%w: key %q migrating shard %d -> %d", ErrWrongShard, res, m.src, m.dst)
		}
		s, ok := r.ring.Lookup(res)
		if !ok {
			return 0, ErrUnserviceable
		}
		if home == -1 {
			home = s
		} else if s != home {
			return 0, fmt.Errorf("%w: %q on shard %d, %q on shard %d",
				ErrCrossShard, resources[0], home, res, s)
		}
	}
	return home, nil
}

// generation returns the current ring generation — the cache
// pushRingGen publishes, so readers pay one atomic load and the grant
// path never takes mu just to read the epoch.
func (r *Router) generation() uint64 {
	return r.gen.Load()
}

// spanPart is one shard's slice of a (possibly spanning) resource set.
type spanPart struct {
	shard int
	keys  []string
}

// partsFor decomposes a resource set by ring placement under one ring
// snapshot, returning parts in ascending shard order (the canonical
// acquisition order); within a part, keys keep request order.
//
//lint:order sorted span shard
func (r *Router) partsFor(resources []string) ([]spanPart, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(resources) == 0 {
		return nil, fmt.Errorf("%w: empty resource set", ErrUnmappable)
	}
	now := time.Now()
	var parts []spanPart
	for _, res := range resources {
		if m := r.fencedLocked(res, now); m != nil {
			r.metrics.MigrationFences.Add(1)
			return nil, fmt.Errorf("%w: key %q migrating shard %d -> %d", ErrWrongShard, res, m.src, m.dst)
		}
		s, ok := r.ring.Lookup(res)
		if !ok {
			return nil, ErrUnserviceable
		}
		i := 0
		for i < len(parts) && parts[i].shard != s {
			i++
		}
		if i == len(parts) {
			parts = append(parts, spanPart{shard: s})
		}
		parts[i].keys = append(parts[i].keys, res)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].shard < parts[j].shard })
	return parts, nil
}

// prepareBudget resolves the span prepare-lease TTL.
func (r *Router) prepareBudget() time.Duration {
	if r.cfg.PrepareTTL > 0 {
		return r.cfg.PrepareTTL
	}
	// NewServer defaulted every shard's DefaultTimeout, so this is
	// always positive: one shard's wait budget plus scheduling slack.
	return r.sets[0].Primary().cfg.DefaultTimeout + time.Second
}

// Acquire routes the resource set by ring placement. A set owned by
// one shard acquires directly there (no prepare lease, one round
// trip); a spanning set runs the span protocol. ringGen, when
// non-zero, asserts the generation the caller resolved placement
// under; a mismatch is ErrWrongShard.
//
//lint:lease acquire
func (r *Router) Acquire(ctx context.Context, resources []string, ttl time.Duration, ringGen uint64) (*Grant, error) {
	cur := r.generation()
	if ringGen != 0 && ringGen != cur {
		r.metrics.WrongShardRejections.Add(1)
		return nil, fmt.Errorf("%w: client generation %d, ring generation %d", ErrWrongShard, ringGen, cur)
	}
	parts, err := r.partsFor(resources)
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		home := parts[0].shard
		r.metrics.ShardRequests[home].Add(1)
		g, err := r.sets[home].acquire(ctx, resources, ttl)
		if errors.Is(err, ErrLeaderless) {
			r.metrics.LeaderlessRejections.Add(1)
		}
		// Migration fence, second half: a key migration that started
		// after partsFor resolved placement bumped the generation before
		// waiting for the source's leases to drain. A grant that raced
		// that fence must not reach the client — release it and bounce,
		// exactly as if the client had routed under a stale generation.
		// Steady state (generation unchanged) pays one atomic load.
		if err == nil && r.generation() != cur && !r.stillPlaced(resources, home) {
			_ = r.sets[home].release(g.SessionID)
			r.metrics.MigrationFences.Add(1)
			return nil, fmt.Errorf("%w: placement of %q moved mid-acquire", ErrWrongShard, resources[0])
		}
		if err == nil && r.ctl != nil {
			r.ctl.Observe(home, g.Resources, g.Wait)
		}
		return g, err
	}
	return r.acquireSpan(ctx, resources, parts, ttl, cur)
}

// stillPlaced reports whether every resource still resolves to home
// and none is fenced by an in-flight migration — the post-grant check
// that makes a grant racing a migration fence invisible to clients.
func (r *Router) stillPlaced(resources []string, home int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	for _, res := range resources {
		if r.fencedLocked(res, now) != nil {
			return false
		}
		if s, ok := r.ring.Lookup(res); !ok || s != home {
			return false
		}
	}
	return true
}

// partsStillPlaced is stillPlaced for a span's decomposition.
func (r *Router) partsStillPlaced(parts []spanPart) bool {
	for _, pt := range parts {
		if !r.stillPlaced(pt.keys, pt.shard) {
			return false
		}
	}
	return true
}

// acquireSpan acquires a shard-spanning resource set all-or-nothing:
// sub-sessions in ascending shard order under prepare leases, then a
// commit pass promoting every prepare to the client's TTL. Any
// sub-acquire failure or lost prepare rolls every early grant back, so
// no client ever observes a partially committed set. After each
// sub-acquire, every earlier prepare is refreshed back to the full
// prepare budget — a prepare therefore only has to survive ONE shard's
// wait between refreshes, regardless of how many shards the span
// touches. A prepare the janitor or a node fence revoked mid-protocol
// surfaces as ErrSpanAborted (409, retryable: rollback left no
// residue), as does a key migration that moved any part's placement
// between resolution and commit — checked against gen0, the generation
// the parts were resolved under.
func (r *Router) acquireSpan(ctx context.Context, resources []string, parts []spanPart, ttl time.Duration, gen0 uint64) (*Grant, error) {
	// The protocol's deadlock freedom rests on every span walking its
	// shards in the same order. partsFor already sorts, but the proof
	// should not depend on a contract a caller could break: re-assert
	// ascending shard order locally (a handful of elements, already
	// sorted — effectively free).
	sort.Slice(parts, func(i, j int) bool { return parts[i].shard < parts[j].shard })
	r.metrics.SpanAcquires.Add(1)
	start := time.Now()
	prep := r.prepareBudget()
	subs := make([]*Grant, 0, len(parts))
	rollback := func() {
		if len(subs) == 0 {
			return
		}
		for i := len(subs) - 1; i >= 0; i-- {
			_ = r.sets[parts[i].shard].release(subs[i].SessionID)
			r.sets[parts[i].shard].noteSpan(ReplOpSpanRollback, subs[i].SessionID)
		}
		r.metrics.SpanRollbacks.Add(1)
	}
	for _, pt := range parts {
		r.metrics.ShardRequests[pt.shard].Add(1)
		//lint:order acquire span pt.shard
		g, err := r.sets[pt.shard].acquire(ctx, pt.keys, prep)
		if err != nil {
			if errors.Is(err, ErrLeaderless) {
				r.metrics.LeaderlessRejections.Add(1)
			}
			rollback()
			return nil, err
		}
		subs = append(subs, g)
		// The sub-lease is now an early grant under a prepare TTL; tell
		// the shard's standbys so a promotion mid-span knows this lease
		// belongs to an unresolved span.
		r.sets[pt.shard].noteSpan(ReplOpSpanPrepare, g.SessionID)
		for i := 0; i < len(subs)-1; i++ {
			if _, err := r.sets[parts[i].shard].renew(subs[i].SessionID, prep); err != nil {
				rollback()
				return nil, fmt.Errorf("%w: shard %d prepare lost mid-span: %v", ErrSpanAborted, parts[i].shard, err)
			}
		}
	}
	// Migration fence for spans: if the ring epoch moved while the
	// prepares were collecting, re-validate every part's placement
	// before promoting anything to the client TTL. A span must commit
	// entirely inside one placement epoch or not at all — otherwise a
	// migrated key could be granted here under its old home while the
	// override already routes new acquires to its new one.
	if r.generation() != gen0 && !r.partsStillPlaced(parts) {
		rollback()
		r.metrics.MigrationFences.Add(1)
		return nil, fmt.Errorf("%w: placement moved mid-span (ring generation %d -> %d)", ErrSpanAborted, gen0, r.generation())
	}
	for i := range subs {
		if _, err := r.sets[parts[i].shard].renew(subs[i].SessionID, ttl); err != nil {
			rollback()
			return nil, fmt.Errorf("%w: shard %d prepare lost at commit: %v", ErrSpanAborted, parts[i].shard, err)
		}
		r.sets[parts[i].shard].noteSpan(ReplOpSpanCommit, subs[i].SessionID)
	}
	if r.ctl != nil {
		for _, pt := range parts {
			r.ctl.Observe(pt.shard, pt.keys, time.Since(start))
		}
	}
	r.metrics.SpanCommits.Add(1)
	ids := make([]string, len(subs))
	for i, g := range subs {
		ids[i] = g.SessionID
	}
	return &Grant{
		SessionID: spanPrefix + strings.Join(ids, spanSep),
		Node:      subs[0].Node,
		Resources: append([]string(nil), resources...),
		Wait:      time.Since(start),
	}, nil
}

// Span session IDs concatenate the per-shard sub-lease IDs:
// "span:k0:s00000001-2+k3:s00000004-1". Sub IDs contain ':' but never
// '+', so the separator is unambiguous; with the codec's 64-resource
// bound the result stays far under the wire's 4096-byte session limit.
const (
	spanPrefix = "span:"
	spanSep    = "+"
)

// spanSubIDs splits a span session ID into its sub-lease IDs.
func spanSubIDs(sessionID string) ([]string, bool) {
	rest, ok := strings.CutPrefix(sessionID, spanPrefix)
	if !ok || rest == "" {
		return nil, false
	}
	return strings.Split(rest, spanSep), true
}

// Release routes a release by the session ID's shard prefix. A span
// session releases every sub-lease; it succeeds if any sub-lease was
// still live (sub-leases already expired or fenced are at-most-once
// no-ops, matching the single-session release contract) and reports
// ErrNotFound only when the whole span was already gone.
//
//lint:lease release
func (r *Router) Release(sessionID string) error {
	if ids, ok := spanSubIDs(sessionID); ok {
		released := false
		for _, id := range ids {
			if r.releaseSub(id) == nil {
				released = true
			}
		}
		if !released {
			return ErrNotFound
		}
		return nil
	}
	return r.releaseSub(sessionID)
}

func (r *Router) releaseSub(sessionID string) error {
	s, ok := sessionShard(sessionID)
	if !ok || s >= len(r.sets) {
		return ErrNotFound
	}
	return r.sets[s].release(sessionID)
}

// Renew routes a lease renewal by the session ID's shard prefix. A
// span session renews every sub-lease and reports the smallest granted
// lifetime; if any sub-lease is gone (expired or fenced), the span's
// atomicity is already broken, so the survivors are released and the
// renewal fails — the client holds all of its keys or none.
//
//lint:lease renew
func (r *Router) Renew(sessionID string, ttl time.Duration) (time.Duration, error) {
	if ids, ok := spanSubIDs(sessionID); ok {
		granted := time.Duration(0)
		for i, id := range ids {
			g, err := r.renewSub(id, ttl)
			if err != nil {
				for _, other := range ids {
					if other != id {
						_ = r.releaseSub(other)
					}
				}
				r.metrics.SpanRollbacks.Add(1)
				return 0, fmt.Errorf("%w: span sub-lease %s lost: %v", ErrNotFound, id, err)
			}
			if i == 0 || g < granted {
				granted = g
			}
		}
		return granted, nil
	}
	return r.renewSub(sessionID, ttl)
}

func (r *Router) renewSub(sessionID string, ttl time.Duration) (time.Duration, error) {
	s, ok := sessionShard(sessionID)
	if !ok || s >= len(r.sets) {
		return 0, ErrNotFound
	}
	return r.sets[s].renew(sessionID, ttl)
}

// sessionShard parses the "k<shard>:" session-ID prefix.
func sessionShard(sessionID string) (int, bool) {
	pfx, _, ok := strings.Cut(sessionID, ":")
	if !ok || !strings.HasPrefix(pfx, "k") {
		return 0, false
	}
	s, err := strconv.Atoi(pfx[1:])
	if err != nil || s < 0 {
		return 0, false
	}
	return s, true
}

// Status aggregates every shard's report: summed service totals at the
// top level, full per-shard reports under Reports. Node rows carry
// their shard, so IDs stay meaningful after concatenation.
func (r *Router) Status() StatusReport {
	agg := StatusReport{
		Shards:  len(r.sets),
		ShardID: -1, // the aggregate speaks for no single shard
		RingGen: r.generation(),
	}
	for _, set := range r.sets {
		s := set.Primary()
		rep := s.Status()
		rep.Role = "primary"
		if s.Halted() {
			rep.Role = "halted"
		}
		rep.ShardIncarnation = set.incarnation()
		rep.Standbys = set.standbyCount()
		rep.ReplicationLag = int64(set.maxLag())
		if agg.Topology == "" {
			agg.Topology = fmt.Sprintf("%d x %s", len(r.sets), rep.Topology)
			// Every shard arbitrates the same catalog (one conflict graph
			// per shard, identical names); publish it once.
			agg.Edges = rep.Edges
		}
		agg.Workers += rep.Workers
		agg.Locks += rep.Locks
		agg.ActiveLeases += rep.ActiveLeases
		agg.QueueDepth += rep.QueueDepth
		agg.Grants += rep.Grants
		if rep.UptimeMS > agg.UptimeMS {
			agg.UptimeMS = rep.UptimeMS
		}
		agg.Draining = agg.Draining || rep.Draining
		agg.Nodes = append(agg.Nodes, rep.Nodes...)
		agg.Reports = append(agg.Reports, rep)
	}
	if r.ctl != nil {
		cnt, gen := r.OverrideState()
		agg.Control = &ControlReport{Status: r.ctl.Snapshot(), OverrideCount: cnt, OverrideGen: gen}
	}
	return agg
}

// Handler returns the router's HTTP surface — the Server API plus the
// ring endpoints:
//
//	POST /v1/acquire     ring-routed acquire (409 on stale ring_gen)
//	POST /v1/release     release, routed by the session-ID shard prefix
//	GET  /v1/status      aggregated report with per-shard sub-reports
//	GET  /v1/ring        ring seed/vnodes/generation/members
//	GET  /metrics        merged Prometheus exposition across shards
//	POST /v1/admin/ring  ?op=leave|join&shard=S: ring membership
//	POST /v1/admin/failover  ?shard=S: kill the shard primary, await promotion
//	POST /v1/admin/migrate   ?key=K&to=S: fence/drain/commit one key move
//	POST /v1/admin/*     crash/restart/leave/join, fanned out by ?shard=S
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/acquire", r.handleAcquire)
	mux.HandleFunc("/v1/release", r.handleRelease)
	mux.HandleFunc("/v1/renew", r.handleRenew)
	mux.HandleFunc("/v1/admin/failover", r.handleFailover)
	mux.HandleFunc("/v1/admin/migrate", r.handleMigrate)
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, r.Status())
	})
	mux.HandleFunc("/v1/ring", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, r.RingInfo())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WriteMetrics(w)
	})
	mux.HandleFunc("/v1/admin/ring", r.handleRing)
	mux.HandleFunc("/v1/admin/", r.handleAdmin)
	return mux
}

func (r *Router) handleAcquire(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var body AcquireRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(body.Resources) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("resources must be non-empty"))
		return
	}
	ctx := req.Context()
	if body.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(body.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	grant, err := r.Acquire(ctx, body.Resources, time.Duration(body.TTLMS)*time.Millisecond, body.RingGen)
	if err != nil {
		code := statusFor(err)
		var ra *RetryAfterError
		if errors.As(err, &ra) {
			// Leaderless shard: the remaining blackout is known
			// server-side, so tell the client exactly how long to back
			// off (fractional seconds).
			w.Header().Set("Retry-After", strconv.FormatFloat(ra.After.Seconds(), 'f', 3, 64))
		}
		switch code {
		case http.StatusTooManyRequests:
			w.Header().Set("Retry-After", r.retryAfterHint())
		case http.StatusConflict:
			// Ship the live generation so the client can retry without a
			// /v1/ring round-trip.
			writeJSON(w, code, ErrorResponse{Error: err.Error(), RingGen: r.generation()})
			return
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, AcquireResponse{
		SessionID: grant.SessionID,
		Node:      int(grant.Node),
		Resources: grant.Resources,
		WaitMS:    float64(grant.Wait.Microseconds()) / 1000,
	})
}

func (r *Router) handleRelease(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var body ReleaseRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := r.Release(body.SessionID); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ReleaseResponse{Released: true})
}

func (r *Router) handleRenew(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var body RenewRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ttl, err := r.Renew(body.SessionID, time.Duration(body.TTLMS)*time.Millisecond)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, RenewResponse{Renewed: true, TTLMS: ttl.Milliseconds()})
}

func (r *Router) handleRing(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	s, err := strconv.Atoi(req.URL.Query().Get("shard"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("shard query parameter required"))
		return
	}
	switch req.URL.Query().Get("op") {
	case "leave":
		err = r.RingLeave(s)
	case "join":
		err = r.RingJoin(s)
	default:
		writeErr(w, http.StatusBadRequest, errors.New("op must be leave or join"))
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, r.RingInfo())
}

// handleMigrate is the manual key-migration switch: POST
// /v1/admin/migrate?key=K&to=S runs the same fence/drain/commit
// protocol the controller actuates, so operators (and the chaos
// harness) can move a key without waiting for the feedback loop.
func (r *Router) handleMigrate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	key := req.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, errors.New("key query parameter required"))
		return
	}
	to, err := strconv.Atoi(req.URL.Query().Get("to"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("to query parameter must be a shard index"))
		return
	}
	if err := r.MigrateKey(key, to); err != nil {
		// Request defects (unknown shard index) are the client's to fix;
		// everything else — already migrating, drain timeout, leaderless
		// destination — is migration state worth retrying, so 409.
		code := http.StatusConflict
		if errors.Is(err, errMigrateInvalid) {
			code = http.StatusBadRequest
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, r.RingInfo())
}

// handleAdmin fans the per-node admin endpoints out to one shard's own
// handler, selected by ?shard=S (default 0).
func (r *Router) handleAdmin(w http.ResponseWriter, req *http.Request) {
	s := 0
	if v := req.URL.Query().Get("shard"); v != "" {
		var err error
		if s, err = strconv.Atoi(v); err != nil || s < 0 || s >= len(r.sets) {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("shard must be in [0,%d)", len(r.sets)))
			return
		}
	}
	r.sets[s].adminHandler().ServeHTTP(w, req)
}

// handleFailover is the kill-primary admin switch: POST
// /v1/admin/failover?shard=S halts shard S's primary and waits for the
// supervisor to promote a standby, answering with the shard's new
// incarnation. It exists so the chaos harness exercises the real
// detection-and-promotion path over HTTP, not a test-only shortcut.
func (r *Router) handleFailover(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	s, err := strconv.Atoi(req.URL.Query().Get("shard"))
	if err != nil || s < 0 || s >= len(r.sets) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("shard must be in [0,%d)", len(r.sets)))
		return
	}
	timeout := 5 * time.Second
	if v := req.URL.Query().Get("timeout_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			writeErr(w, http.StatusBadRequest, errors.New("timeout_ms must be a positive integer"))
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	if err := r.Failover(s, timeout); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, r.ShardInfo(s))
}

// WriteMetrics writes the router's routing and failover series followed
// by its primaries' merged exposition. A write error is dropped: the
// scraper sees a short body.
func (r *Router) WriteMetrics(w io.Writer) {
	_ = stats.WriteText(w, r.families())
}

// families returns the router's own families, then mergeShards'.
func (r *Router) families() []stats.Family {
	m := r.metrics
	hot := 0.0
	if r.ctl != nil {
		hot = r.ctl.Snapshot().HotFraction
	}
	fams := []stats.Family{
		stats.Gauge("dinerd_router_ring_generation", "Consistent-hash ring generation.", float64(r.generation())),
		stats.Counter("dinerd_router_wrong_shard_rejections_total", "Acquires routed under a stale ring generation (409).", m.WrongShardRejections.Load()),
		stats.Counter("dinerd_span_acquires_total", "Cross-shard span acquires attempted.", m.SpanAcquires.Load()),
		stats.Counter("dinerd_span_commits_total", "Cross-shard spans committed atomically.", m.SpanCommits.Load()),
		stats.Counter("dinerd_span_rollback_total", "Cross-shard spans rolled back (sub-acquire failure, lost prepare, or fenced sub-lease).", m.SpanRollbacks.Load()),
		indexed("dinerd_router_shard_requests_total", "Acquire requests routed per shard.", "counter", "shard", len(m.ShardRequests), func(i int) float64 { return float64(m.ShardRequests[i].Load()) }),
		stats.Counter("dinerd_failover_total", "Completed standby promotions across all shards.", m.Failovers.Load()),
		stats.Counter("dinerd_leaderless_rejections_total", "Requests bounced with 503+Retry-After while a shard was leaderless.", m.LeaderlessRejections.Load()),
		stats.Counter("dinerd_rebalance_total", "Key migrations committed (override installed after a clean drain).", m.Rebalances.Load()),
		stats.Counter("dinerd_rebalance_aborted_total", "Key migrations that fenced a key but aborted before the override landed.", m.RebalancesAborted.Load()),
		stats.Counter("dinerd_migration_fences_total", "Acquires bounced (409) by an in-flight key migration's fence.", m.MigrationFences.Load()),
		stats.Gauge("dinerd_hotkey_fraction", "Hottest single key's share of total decayed grant load (0 when the controller is off).", hot),
		stats.HistogramFamily("dinerd_promotion_seconds", "Standby promotion latency: decision to serving.", m.PromotionHist),
		indexed("dinerd_shard_role", "Shard role (1=primary serving, 0=halted/leaderless).", "gauge", "shard", len(r.sets), func(i int) float64 {
			if r.sets[i].Primary().Healthy() {
				return 1
			}
			return 0
		}),
		indexed("dinerd_shard_incarnation", "Primary incarnation per shard (bumped on every promotion).", "gauge", "shard", len(r.sets), func(i int) float64 { return float64(r.sets[i].incarnation()) }),
		indexed("dinerd_shard_replication_lag", "Widest standby lag per shard, in lease records.", "gauge", "shard", len(r.sets), func(i int) float64 { return float64(r.sets[i].maxLag()) }),
	}
	return append(fams, r.mergeShards()...)
}

// mergeShards merges the primaries' families: samples with the same
// name and labels are summed (which aggregates the plain counters,
// gauges, and histogram buckets correctly), in first-seen order, and
// node-labelled samples first gain a shard label so worker IDs that
// repeat across shards stay distinct. A sample seen first in a later
// shard joins the output as a new run of its family, after everything
// the earlier shards contributed.
func (r *Router) mergeShards() []stats.Family {
	var out []stats.Family
	at := map[string][2]int{} // sample key -> index in out, index in its Samples
	var key []byte
	for i, set := range r.sets {
		shardLabel := stats.Label{Name: "shard", Value: strconv.Itoa(i)}
		for _, f := range set.Primary().families() {
			for _, s := range f.Samples {
				if len(s.Labels) > 0 && s.Labels[0].Name == "node" {
					s.Labels = append(s.Labels[:len(s.Labels):len(s.Labels)], shardLabel)
				}
				key = append(key[:0], s.Name...)
				for _, l := range s.Labels {
					key = append(append(key, 0), l.Name...)
					key = append(append(key, 0), l.Value...)
				}
				if pos, ok := at[string(key)]; ok {
					out[pos[0]].Samples[pos[1]].Value += s.Value
					continue
				}
				if len(out) == 0 || out[len(out)-1].Name != f.Name {
					out = append(out, stats.Family{Name: f.Name, Help: f.Help, Type: f.Type, Samples: make([]stats.Sample, 0, len(f.Samples))})
				}
				last := &out[len(out)-1]
				at[string(key)] = [2]int{len(out) - 1, len(last.Samples)}
				last.Samples = append(last.Samples, s)
			}
		}
	}
	return out
}

// ShardKeys partitions a catalog of resource names by owning shard —
// the helper loadgen and the bench harness use to draw same-shard
// resource pairs.
func (r *Router) ShardKeys(names []string) map[int][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int][]string)
	for _, n := range names {
		if s, ok := r.ring.Lookup(n); ok {
			out[s] = append(out[s], n)
		}
	}
	for s := range out {
		sort.Strings(out[s])
	}
	return out
}
