package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mcdp/internal/control"
	"mcdp/internal/graph"
	"mcdp/internal/lockservice"
	"mcdp/internal/shard"
)

// Fixed service parameters shared by every workload.
const (
	numKeys    = 512
	tick       = 2 * time.Millisecond
	waitBudget = 10 * time.Second // server-side acquire budget
	// systemSeed drives the substrate and the placement ring. It is
	// fixed so that every workload seed runs against the same
	// placement; --seed varies only the generated inputs.
	systemSeed = 1
	// streamLen is how many requests each closed-loop caller has
	// pre-generated; a caller that uses them all starts over.
	streamLen = 2048
)

// workload is one named traffic mix: a closed loop of callers, each
// sending its next request once the previous one is released.
type workload struct {
	name     string
	why      string
	shards   int
	topology string // "grid3x3" or "ring6"
	standbys int
	callers  int
	zipf     float64 // zipf skew over shard-grouped ranks; 0 = uniform
	pair     float64 // share of two-key same-worker requests
	span     float64 // share of cross-shard requests over 2-3 shards
	hold     time.Duration
	ttl      time.Duration // lease TTL; 0 = server default
	control  bool          // arm the hot-key controller
	// kills is how many primaries a traced run kills via
	// Router.Failover in the failover probe after its traced window.
	kills  int
	warmup time.Duration
}

var workloads = []workload{
	{
		name:     "uniform",
		why:      "Per-grant CPU path: transport, routing, MapSession, substrate wake and the semi-sync ack run once per grant and nobody waits on another holder.",
		shards:   4,
		topology: "grid3x3",
		standbys: 1,
		callers:  64,
		pair:     0.2,
		// A killed primary's frozen lease table empties only by expiry;
		// a short TTL lets the drain check see it empty. No lease is
		// held anywhere near this long.
		ttl:    time.Second,
		kills:  4,
		warmup: 500 * time.Millisecond,
	},
	{
		name:     "zipf-hot",
		why:      "Waiting dominates, not CPU: the arbiter queue and hunger-to-eat at the hot slot set the numbers, and only the controller's key migrations move them.",
		shards:   4,
		topology: "ring6",
		callers:  48,
		zipf:     1.05,
		hold:     5 * time.Millisecond,
		control:  true,
		// The controller makes most of its moves in the first seconds;
		// the window measures the placement it settles on.
		warmup: 3 * time.Second,
	},
	{
		name:     "span-mix",
		why:      "Same Router.Acquire as uniform but 20% of requests take the cross-shard prepare/commit span protocol, so a fast-path gain that costs spans shows here.",
		shards:   4,
		topology: "grid3x3",
		callers:  64,
		pair:     0.2,
		span:     0.2,
		hold:     5 * time.Millisecond,
		warmup:   500 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) graph() *graph.Graph {
	if w.topology == "ring6" {
		return graph.Ring(6)
	}
	return graph.Grid(3, 3)
}

// failoverConfig is the `dinerd bench -mode failover` detection and
// promotion tuning; it applies to every workload with standbys.
func failoverConfig(logf func(string, ...any)) lockservice.FailoverConfig {
	return lockservice.FailoverConfig{
		CheckEvery:     10 * time.Millisecond,
		Misses:         2,
		Cooloff:        300 * time.Millisecond,
		AckTimeout:     100 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		StaleAfter:     250 * time.Millisecond,
		Logf:           logf,
	}
}

// controlConfig is the `dinerd bench -mode hotkey` controller tuning.
func controlConfig() *control.Config {
	return &control.Config{
		Interval:   100 * time.Millisecond,
		HalfLife:   500 * time.Millisecond,
		Hysteresis: 1.2,
		MaxMoves:   2,
		TopK:       24,
		MinLoad:    64,
		Cooldown:   3 * time.Second,
	}
}

// routerConfig is the service configuration a workload runs against.
func (w workload) routerConfig(hist *lockservice.History, logf func(string, ...any)) lockservice.RouterConfig {
	cfg := lockservice.RouterConfig{
		Shards:   w.shards,
		Replicas: w.standbys,
		Base: lockservice.Config{
			Graph:          w.graph(),
			Seed:           systemSeed,
			TickEvery:      tick,
			DefaultTimeout: waitBudget,
			DefaultTTL:     w.ttl,
			History:        hist,
		},
		Failover: failoverConfig(logf),
	}
	if w.control {
		cfg.Rebalance = controlConfig()
	}
	return cfg
}

// placementRing rebuilds the ring NewRouter will build for cfg, so the
// inputs can be generated before the router exists.
func placementRing(cfg lockservice.RouterConfig) *shard.Ring {
	r := shard.New(uint64(cfg.Base.Seed), cfg.Vnodes)
	for i := 0; i < cfg.Shards; i++ {
		if err := r.Add(i); err != nil {
			panic(err) // fresh ring, dense ids
		}
	}
	return r
}

// catalog is the keyspace classified by placement: every key's shard,
// the keys of each shard, and the same-worker same-shard groups a
// two-key request is drawn from.
type catalog struct {
	keys    []string
	shardOf []int
	byShard [][]int // key indices per shard
	buckets [][]int // key indices sharing a worker and a shard
	order   []int   // key indices grouped by shard, for zipf ranks
}

func newCatalog(ring *shard.Ring, shards int, g *graph.Graph) *catalog {
	m := lockservice.NewResourceMapper(g)
	c := &catalog{
		keys:    make([]string, numKeys),
		shardOf: make([]int, numKeys),
		byShard: make([][]int, shards),
	}
	type group struct{ worker, shard int }
	groups := map[group][]int{}
	for i := range c.keys {
		c.keys[i] = fmt.Sprintf("res-%06d", i)
		s, _ := ring.Lookup(c.keys[i])
		c.shardOf[i] = s
		c.byShard[s] = append(c.byShard[s], i)
		e, _ := m.EdgeFor(c.keys[i])
		for _, p := range []graph.ProcID{e.A, e.B} {
			k := group{int(p), s}
			groups[k] = append(groups[k], i)
		}
	}
	var gs []group
	for k, members := range groups {
		if len(members) >= 2 {
			gs = append(gs, k)
		}
	}
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].worker != gs[j].worker {
			return gs[i].worker < gs[j].worker
		}
		return gs[i].shard < gs[j].shard
	})
	for _, k := range gs {
		c.buckets = append(c.buckets, groups[k])
	}
	for _, ks := range c.byShard {
		c.order = append(c.order, ks...)
	}
	return c
}

// request is one pre-generated acquire: up to three key indices.
type request struct {
	keys [3]uint16
	n    uint8
}

func (r request) names(c *catalog) []string {
	out := make([]string, r.n)
	for i := range out {
		out[i] = c.keys[r.keys[i]]
	}
	return out
}

// inputs is everything a segment sends, generated from the seed before
// the router starts.
type inputs struct {
	cat *catalog
	// streams holds each caller's requests.
	streams [][]request
	// kills are the offsets into the failover probe at which a primary
	// is killed.
	kills []time.Duration
}

// probeLen is the length of the failover probe: kills spaced past the
// 300ms promotion cool-off.
const probeLen = 2 * time.Second

// generate builds the inputs of one segment of a run. The same
// workload, seed and segment give the same inputs.
func generate(w workload, cat *catalog, seed int64, segment int) *inputs {
	in := &inputs{cat: cat, streams: make([][]request, w.callers)}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(segment)))
	draw := w.sampler(cat, rng)
	for c := range in.streams {
		reqs := make([]request, streamLen)
		for i := range reqs {
			reqs[i] = w.pick(cat, rng, draw)
		}
		in.streams[c] = reqs
	}
	// Kills are spread evenly over the probe, each jittered by up to a
	// tenth of the spacing.
	spacing := probeLen / time.Duration(w.kills+1)
	for i := 1; i <= w.kills; i++ {
		jitter := time.Duration((rng.Float64() - 0.5) * 0.2 * float64(spacing))
		in.kills = append(in.kills, time.Duration(i)*spacing+jitter)
	}
	return in
}

// sampler returns the single-key draw: zipf over shard-grouped ranks,
// so the hot head lands on one shard, or uniform.
func (w workload) sampler(c *catalog, rng *rand.Rand) func() int {
	if w.zipf > 1 {
		z := rand.NewZipf(rng, w.zipf, 1, uint64(len(c.order)-1))
		return func() int { return c.order[z.Uint64()] }
	}
	return func() int { return rng.Intn(len(c.keys)) }
}

// pick draws one request: a span over 2-3 shards with probability
// span, else a two-key same-worker pair with probability pair, else a
// single key.
func (w workload) pick(c *catalog, rng *rand.Rand, draw func() int) request {
	var r request
	switch {
	case w.span > 0 && rng.Float64() < w.span:
		want := 2 + rng.Intn(2)
		if want > len(c.byShard) {
			want = len(c.byShard)
		}
		for _, s := range rng.Perm(len(c.byShard))[:want] {
			ks := c.byShard[s]
			r.keys[r.n] = uint16(ks[rng.Intn(len(ks))])
			r.n++
		}
	case w.pair > 0 && rng.Float64() < w.pair:
		b := c.buckets[rng.Intn(len(c.buckets))]
		i := rng.Intn(len(b))
		j := rng.Intn(len(b) - 1)
		if j >= i {
			j++
		}
		r.keys[0], r.keys[1], r.n = uint16(b[i]), uint16(b[j]), 2
	default:
		r.keys[0], r.n = uint16(draw()), 1
	}
	return r
}
