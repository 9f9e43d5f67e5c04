package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"mcdp/internal/lockservice"
	"mcdp/internal/wire"
)

// clock reads nanoseconds since a run started, on the monotonic clock.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// at converts a clock reading back to wall time for sleeping.
func (c clock) at(ns int64) time.Time { return c.t0.Add(time.Duration(ns)) }

// Operation outcomes.
const (
	opOK              uint8 = iota
	opAcquireFailed         // acquire refused or failed after the client's retries
	opReleaseFailed         // release failed for another reason than not-found
	opReleaseNotFound       // release answered not-found: the lease was lost
)

// opRec is one acquire/hold/release cycle as the client saw it.
// Times are clock readings; grant is the moment the grant arrived.
type opRec struct {
	start   int64 // the acquire's send
	grant   int64
	relSend int64
	relDone int64
	session string
	req     request
	status  uint8
	code    uint16 // rejection code of a failed call, 0 for transport errors
}

// opLog is one goroutine's records, stored in fixed-size chunks so the
// log grows without copying.
type opLog struct{ chunks [][]opRec }

const chunkSize = 1024

func (l *opLog) add(r opRec) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == chunkSize {
		l.chunks = append(l.chunks, make([]opRec, 0, chunkSize))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], r)
}

// env is one running service with its wire listener and client.
type env struct {
	w      workload
	in     *inputs
	clk    clock
	rt     *lockservice.Router
	ws     *wire.Server
	served chan struct{}
	client *wire.Client
	rec    *recorder // nil unless traced
	hist   *lockservice.History
}

// logf sends the service's promotion and control logs to stderr, away
// from the result on stdout.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// wireConns is the client's connection pool size: one per CPU, so the
// load never needs more connections than the machine has cores.
func wireConns() int { return runtime.NumCPU() }

// setUp starts a router, a wire listener over it, and a client, and
// returns once the client holds and has released its first grant. The
// returned duration runs from NewRouter to that first grant.
func setUp(ctx context.Context, w workload, in *inputs, traced bool) (*env, time.Duration, error) {
	e := &env{w: w, in: in, clk: clock{time.Now()}, served: make(chan struct{})}
	if traced {
		e.rec = &recorder{}
		e.hist = lockservice.NewHistory()
	}
	t0 := time.Now()
	e.rt = lockservice.NewRouter(w.routerConfig(e.hist, logf))
	e.rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.rt.Stop(ctx)
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	var backend wire.Backend = e.rt.WireBackend()
	if traced {
		backend = tracedBackend{Backend: backend, rec: e.rec, clk: e.clk}
	}
	e.ws = wire.NewServer(wire.ServerConfig{Backend: backend})
	go func() {
		defer close(e.served)
		_ = e.ws.Serve(ln) // returns nil once Close stops it
	}()
	e.client = wire.NewClient(ln.Addr().String())
	e.client.Conns = wireConns()
	// Enough attempts that the client's backoff (50ms doubling to 1s)
	// outlasts a failover: a request sent while a shard is dark is slow,
	// not lost.
	e.client.MaxAttempts = 8
	g, err := e.client.Acquire(ctx, []string{in.cat.keys[0]}, 0, 0)
	if err != nil {
		e.tearDown()
		return nil, 0, fmt.Errorf("first grant: %w", err)
	}
	setup := time.Since(t0)
	if err := e.client.Release(ctx, g.SessionID); err != nil {
		e.tearDown()
		return nil, 0, fmt.Errorf("first release: %w", err)
	}
	return e, setup, nil
}

func (e *env) tearDown() {
	e.client.Close()
	e.ws.Close()
	<-e.served
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var servers []*lockservice.Server
	for i := 0; i < e.rt.Shards(); i++ {
		servers = append(servers, e.rt.ShardServers(i)...)
	}
	e.rt.Stop(ctx)
	// Router.Stop misses the standbys: the replica set forgets them
	// before the router walks its servers, and their substrates would
	// keep ticking into the next segment. Server.Stop is idempotent.
	for _, s := range servers {
		s.Stop(ctx)
	}
}

// tracedBackend records a span around every call into the router's
// wire backend while the recorder is on.
type tracedBackend struct {
	wire.Backend
	rec *recorder
	clk clock
}

func (b tracedBackend) Acquire(ctx context.Context, req wire.AcquireReq) (wire.GrantInfo, error) {
	if !b.rec.on.Load() {
		return b.Backend.Acquire(ctx, req)
	}
	start := b.clk.now()
	g, err := b.Backend.Acquire(ctx, req)
	b.rec.add(span{name: "router.acquire", start: start, end: b.clk.now(), parent: -1, req: -1, session: g.Session, wait: int64(g.Wait)})
	return g, err
}

func (b tracedBackend) Release(ctx context.Context, session string) error {
	if !b.rec.on.Load() {
		return b.Backend.Release(ctx, session)
	}
	start := b.clk.now()
	err := b.Backend.Release(ctx, session)
	b.rec.add(span{name: "router.release", start: start, end: b.clk.now(), parent: -1, req: -1, session: session})
	return err
}

// errCode is the rejection code a failed wire call carried.
func errCode(err error) uint16 {
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Code
	}
	return 0
}

// kill is one primary kill and how long Router.Failover took to settle.
type kill struct {
	shard  int
	at     int64
	settle int64
}

// sample is one reading of the samplers that run during the load.
type sample struct {
	at        int64
	heap      uint64
	queued    int // sessions queued at every shard's arbiter
	maxQueue  int // deepest single worker queue
	lag       uint64
	moves     int64
	scrapeNS  int64 // 0 when no scrape was due
	scrapeLen int
}

// load is what one drive of the workload produced.
type load struct {
	ops       []opRec
	kills     []kill
	samples   []sample
	loadStart int64
	windows   [][2]int64 // consecutive windows after the warm-up, in clock readings
	counters  []counters // snapshot at each window boundary
	spans     []span
}

// Window roles in a traced run: untraced, traced, then the failover
// probe when the workload kills primaries.
const (
	untracedWin = 0
	tracedWin   = 1
	probeWin    = 2
)

// drive runs the callers through the warm-up and then windows of the
// given lengths. In a traced env the recorder is on during the traced
// window, and a third window is the failover probe.
func (e *env) drive(ctx context.Context, lens ...time.Duration) *load {
	l := &load{loadStart: e.clk.now()}
	at := l.loadStart + int64(e.w.warmup)
	for _, n := range lens {
		l.windows = append(l.windows, [2]int64{at, at + int64(n)})
		at += int64(n)
	}
	end := at

	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(2)
	go func() { defer side.Done(); l.samples = e.sampleLoop(stop) }()
	go func() { defer side.Done(); l.counters = e.snapshotAt(l.windows) }()
	if len(l.windows) > probeWin {
		side.Add(1)
		go func() { defer side.Done(); l.kills = e.killLoop(l.windows[probeWin][0]) }()
	}
	if e.rec != nil {
		w := l.windows[tracedWin]
		side.Add(1)
		go func() {
			defer side.Done()
			time.Sleep(time.Until(e.clk.at(w[0])))
			e.rec.on.Store(true)
			time.Sleep(time.Until(e.clk.at(w[1])))
			e.rec.on.Store(false)
		}()
	}

	l.ops = e.closedLoop(ctx, end)
	close(stop)
	side.Wait()
	if e.rec != nil {
		l.spans = e.rec.take()
	}
	return l
}

// closedLoop runs every caller until the load ends: acquire, hold,
// release, repeat.
func (e *env) closedLoop(ctx context.Context, end int64) []opRec {
	logs := make([]opLog, e.w.callers)
	var wg sync.WaitGroup
	for c := 0; c < e.w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := e.in.streams[c]
			for i := 0; e.clk.now() < end && ctx.Err() == nil; i++ {
				r := opRec{req: stream[i%len(stream)]}
				r.start = e.clk.now()
				e.cycle(ctx, &r)
				logs[c].add(r)
			}
		}(c)
	}
	wg.Wait()
	var ops []opRec
	for _, l := range logs {
		for _, ch := range l.chunks {
			ops = append(ops, ch...)
		}
	}
	return ops
}

// cycle runs one acquire, hold and release, filling in r.
func (e *env) cycle(ctx context.Context, r *opRec) {
	g, err := e.client.Acquire(ctx, r.req.names(e.in.cat), 0, 0)
	if err != nil {
		r.status, r.code = opAcquireFailed, errCode(err)
		return
	}
	r.grant = e.clk.now()
	r.session = g.SessionID
	if e.w.hold > 0 {
		time.Sleep(e.w.hold)
	}
	r.relSend = e.clk.now()
	err = e.client.Release(ctx, g.SessionID)
	r.relDone = e.clk.now()
	switch code := errCode(err); {
	case err == nil:
	case code == 404:
		r.status, r.code = opReleaseNotFound, code
	default:
		r.status, r.code = opReleaseFailed, code
	}
}

// sampleEvery is the samplers' cadence; scrapeEvery is how often a
// /metrics scrape is issued.
const (
	sampleEvery = 10 * time.Millisecond
	scrapeEvery = 100 * time.Millisecond
)

// sampleLoop reads heap, queue depths, replication lag and controller
// moves at a fixed cadence, and scrapes /metrics through the router's
// handler in-process, until stop closes.
func (e *env) sampleLoop(stop <-chan struct{}) []sample {
	h := e.rt.Handler()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	var out []sample
	nextScrape := e.clk.now()
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
		}
		s := sample{at: e.clk.now()}
		metrics.Read(heap)
		s.heap = heap[0].Value.Uint64()
		for i := 0; i < e.rt.Shards(); i++ {
			for _, d := range e.rt.Shard(i).Arbiter().QueueDepths() {
				s.queued += d
				if d > s.maxQueue {
					s.maxQueue = d
				}
			}
			if lag := e.rt.ShardInfo(i).Lag; lag > s.lag {
				s.lag = lag
			}
		}
		s.moves = e.rt.Metrics().Rebalances.Load()
		if s.at >= nextScrape {
			nextScrape += int64(scrapeEvery)
			rr := httptest.NewRecorder()
			start := e.clk.now()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			s.scrapeNS = e.clk.now() - start
			s.scrapeLen = rr.Body.Len()
			if e.rec != nil {
				e.rec.add(span{name: "metrics.scrape", start: start, end: start + s.scrapeNS, parent: -1, req: -1})
			}
		}
		out = append(out, s)
	}
}

// snapshotAt reads every counter at each window boundary.
func (e *env) snapshotAt(windows [][2]int64) []counters {
	var out []counters
	for _, w := range windows {
		time.Sleep(time.Until(e.clk.at(w[0])))
		out = append(out, e.counters())
	}
	time.Sleep(time.Until(e.clk.at(windows[len(windows)-1][1])))
	return append(out, e.counters())
}

// killLoop kills a primary at each pre-generated offset into the probe
// starting at clock reading first, round-robin over shards that still
// have a standby, and times Router.Failover until the shard serves
// again.
func (e *env) killLoop(first int64) []kill {
	var out []kill
	next := 0
	for _, off := range e.in.kills {
		time.Sleep(time.Until(e.clk.at(first + int64(off))))
		target := -1
		for s := 0; s < e.rt.Shards(); s++ {
			c := (next + s) % e.rt.Shards()
			if e.rt.ShardInfo(c).Standbys > 0 {
				target = c
				break
			}
		}
		if target < 0 {
			logf("no standby left; skipping the kill at %v", off)
			continue
		}
		next = target + 1
		k := kill{shard: target, at: e.clk.now()}
		if err := e.rt.Failover(target, 15*time.Second); err != nil {
			logf("failover of shard %d: %v", target, err)
			continue
		}
		k.settle = e.clk.now() - k.at
		out = append(out, k)
	}
	return out
}

// check drains the service after a load and returns every correctness
// violation: overlapping client holds on a key, a server that still
// holds a lease once the drain is over, and, in a traced run, a
// history on shard 0 that CheckEvents rejects.
func (e *env) check(l *load) []string {
	bad := checkOverlap(l.ops)
	bad = append(bad, e.drain()...)
	if e.hist != nil {
		bad = append(bad, lockservice.CheckEvents(e.w.graph(), e.hist.Events())...)
	}
	return bad
}

// drain waits until no server of any shard holds a lease, up to the
// lease TTL plus slack (a killed primary's frozen table empties only by
// expiry), and returns the servers that still hold one.
func (e *env) drain() []string {
	limit := 2 * time.Second
	if e.w.ttl > 0 {
		limit += e.w.ttl
	}
	deadline := time.Now().Add(limit)
	for {
		var held []string
		for i := 0; i < e.rt.Shards(); i++ {
			for j, s := range e.rt.ShardServers(i) {
				if n := s.ActiveLeases(); n > 0 {
					held = append(held, fmt.Sprintf("shard %d server %d holds %d lease(s) after the drain", i, j, n))
				}
			}
		}
		if len(held) == 0 || time.Now().After(deadline) {
			return held
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// counters is one reading of every counter the layers export.
type counters struct {
	acquireRequests, grants, rejTimeout, rejQueueFull, adopted int64
	msgs, dropped, eats                                        int64
	spanAcquires, spanCommits, spanRollbacks                   int64
	wrongShard, fences, leaderless, moves, aborted             int64
	shardRequests                                              []int64
	clientWrites, clientEntries, retries, connsOpened          int64
	serverFrames, serverEntries                                int64
}

func (e *env) counters() counters {
	var c counters
	for i := 0; i < e.rt.Shards(); i++ {
		for _, s := range e.rt.ShardServers(i) {
			m := s.Metrics()
			c.acquireRequests += m.AcquireRequests.Load()
			c.grants += m.Grants.Load()
			c.rejTimeout += m.RejectedTimeout.Load()
			c.rejQueueFull += m.RejectedQueueFull.Load()
			c.adopted += m.LeasesAdopted.Load()
			nw := s.Network()
			c.msgs += nw.MessagesSent()
			c.dropped += nw.MessagesDropped()
			for _, n := range nw.Eats() {
				c.eats += n
			}
		}
	}
	rm := e.rt.Metrics()
	c.spanAcquires = rm.SpanAcquires.Load()
	c.spanCommits = rm.SpanCommits.Load()
	c.spanRollbacks = rm.SpanRollbacks.Load()
	c.wrongShard = rm.WrongShardRejections.Load()
	c.fences = rm.MigrationFences.Load()
	c.leaderless = rm.LeaderlessRejections.Load()
	c.moves = rm.Rebalances.Load()
	c.aborted = rm.RebalancesAborted.Load()
	for i := range rm.ShardRequests {
		c.shardRequests = append(c.shardRequests, rm.ShardRequests[i].Load())
	}
	cs := e.client.Stats()
	c.clientWrites = cs.Writes.Load()
	c.clientEntries = cs.BatchedEntries.Load()
	c.retries = cs.Retries.Load()
	c.connsOpened = cs.ConnsOpened.Load()
	ss := e.ws.Stats()
	c.serverFrames = ss.FramesIn.Load()
	c.serverEntries = ss.EntriesIn.Load()
	return c
}

// sub returns the counts accumulated between b and c.
func (c counters) sub(b counters) counters {
	d := counters{
		acquireRequests: c.acquireRequests - b.acquireRequests,
		grants:          c.grants - b.grants,
		rejTimeout:      c.rejTimeout - b.rejTimeout,
		rejQueueFull:    c.rejQueueFull - b.rejQueueFull,
		adopted:         c.adopted - b.adopted,
		msgs:            c.msgs - b.msgs,
		dropped:         c.dropped - b.dropped,
		eats:            c.eats - b.eats,
		spanAcquires:    c.spanAcquires - b.spanAcquires,
		spanCommits:     c.spanCommits - b.spanCommits,
		spanRollbacks:   c.spanRollbacks - b.spanRollbacks,
		wrongShard:      c.wrongShard - b.wrongShard,
		fences:          c.fences - b.fences,
		leaderless:      c.leaderless - b.leaderless,
		moves:           c.moves - b.moves,
		aborted:         c.aborted - b.aborted,
		clientWrites:    c.clientWrites - b.clientWrites,
		clientEntries:   c.clientEntries - b.clientEntries,
		retries:         c.retries - b.retries,
		connsOpened:     c.connsOpened - b.connsOpened,
		serverFrames:    c.serverFrames - b.serverFrames,
		serverEntries:   c.serverEntries - b.serverEntries,
	}
	for i := range c.shardRequests {
		d.shardRequests = append(d.shardRequests, c.shardRequests[i]-b.shardRequests[i])
	}
	return d
}

// firstMove returns the first sample time at which the controller had
// committed a migration, relative to start, or -1.
func firstMove(samples []sample, start int64) int64 {
	i := sort.Search(len(samples), func(i int) bool { return samples[i].moves > 0 })
	if i == len(samples) {
		return -1
	}
	return samples[i].at - start
}
