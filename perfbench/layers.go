package main

import (
	"strings"
	"time"

	"mcdp/internal/lockservice"
	"mcdp/internal/shard"
	"mcdp/internal/wire"
)

// metric is one reported number. note says how it was computed: the
// percentile and sample count, or a ratio's base.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

func pctMetric(name, unit string, xs []float64, q float64) metric {
	p := percentile(xs, q)
	return metric{name, unit, p.value, p.String()}
}

func ratioMetric(name string, num, den int64) metric {
	r := ratio{float64(num), float64(den)}
	return metric{name, "1", r.value(), r.String()}
}

func countMetric(name string, n int64) metric {
	return metric{name, "count", float64(n), ""}
}

// within reports whether clock reading t lies in window w.
func within(t int64, w [2]int64) bool { return t >= w[0] && t < w[1] }

// windowStats is the client's view of one window.
type windowStats struct {
	grants    int64
	latencyMS []float64
	attempted int64
	failed    int64
}

func clientStats(ops []opRec, w [2]int64) windowStats {
	var s windowStats
	for _, r := range ops {
		if within(r.start, w) {
			s.attempted++
			if r.status == opAcquireFailed {
				s.failed++
			} else {
				s.latencyMS = append(s.latencyMS, float64(r.grant-r.start)/1e6)
			}
		}
		if r.status != opAcquireFailed && within(r.grant, w) {
			s.grants++
		}
		if r.relSend != 0 && within(r.relSend, w) {
			s.attempted++
			if r.status == opReleaseFailed || r.status == opReleaseNotFound {
				s.failed++
			}
		}
	}
	return s
}

// blackouts measures, for each kill in w, the time from the kill to the
// first grant of a request sent after it on a key the struck shard owns.
func blackouts(ops []opRec, kills []kill, cat *catalog, w [2]int64) []float64 {
	var out []float64
	for _, k := range kills {
		if !within(k.at, w) {
			continue
		}
		first := int64(-1)
		for _, r := range ops {
			if r.status == opAcquireFailed || r.start < k.at || !r.req.touches(cat, k.shard) {
				continue
			}
			if first < 0 || r.grant < first {
				first = r.grant
			}
		}
		if first >= 0 {
			out = append(out, float64(first-k.at)/1e6)
		}
	}
	return out
}

func (r request) touches(c *catalog, s int) bool {
	for _, k := range r.keys[:r.n] {
		if c.shardOf[k] == s {
			return true
		}
	}
	return false
}

// replayRuns is how many times each replay repeats; the median run is
// reported.
const replayRuns = 5

// timeReplay runs fn replayRuns times and returns the median
// nanoseconds per item, recording one span per run.
func timeReplay(name string, clk clock, items int, spans *[]span, fn func()) float64 {
	if items == 0 {
		return 0
	}
	per := make([]float64, replayRuns)
	for i := range per {
		start := clk.now()
		fn()
		end := clk.now()
		*spans = append(*spans, span{name: name, start: start, end: end, parent: -1, req: -1})
		per[i] = float64(end-start) / float64(items)
	}
	return median(per)
}

// replayCap bounds how many of the window's requests a replay uses.
const replayCap = 8192

// replayCodec encodes and decodes the window's acquire and grant
// messages in frames of perFrame entries, as the wire codec would.
func replayCodec(clk clock, reqs [][]string, sessions []string, perFrame int, spans *[]span) float64 {
	if perFrame < 1 {
		perFrame = 1
	}
	acq := make([]wire.Msg, len(reqs))
	grants := make([]wire.Msg, len(sessions))
	for i := range acq {
		acq[i] = wire.Msg{Type: wire.TypeAcquire, Corr: uint64(i), Resources: reqs[i], RingGen: 1}
	}
	for i := range grants {
		grants[i] = wire.Msg{Type: wire.TypeGrant, Corr: uint64(i), Session: sessions[i], WaitUS: 100}
	}
	var buf []byte
	roundTrip := func(typ byte, msgs []wire.Msg) {
		for i := 0; i < len(msgs); i += perFrame {
			j := i + perFrame
			if j > len(msgs) {
				j = len(msgs)
			}
			buf = wire.AppendFrame(buf[:0], typ, msgs[i:j])
			if _, _, _, err := wire.DecodeFrame(buf); err != nil {
				panic(err) // a frame the codec just encoded must decode
			}
		}
	}
	return timeReplay("replay.codec", clk, len(acq)+len(grants), spans, func() {
		roundTrip(wire.TypeAcquire, acq)
		roundTrip(wire.TypeGrant, grants)
	})
}

// ringFrom rebuilds the router's placement ring from its description.
func ringFrom(info lockservice.RingInfo) *shard.Ring {
	r := shard.New(info.Seed, info.Vnodes)
	for _, m := range info.Members {
		if err := r.Add(m); err != nil {
			panic(err) // the router's members are distinct
		}
	}
	r.SetOverrides(info.Overrides)
	return r
}

// replayLookup times Ring.Lookup over every key of the window's requests.
func replayLookup(clk clock, ring *shard.Ring, reqs [][]string, spans *[]span) float64 {
	var keys []string
	for _, r := range reqs {
		keys = append(keys, r...)
	}
	return timeReplay("replay.lookup", clk, len(keys), spans, func() {
		for _, k := range keys {
			ring.Lookup(k)
		}
	})
}

// replayMap times MapSession on each shard's part of the window's
// requests, with the shard's own mapper.
func replayMap(clk clock, rt *lockservice.Router, ring *shard.Ring, reqs [][]string, spans *[]span) float64 {
	type part struct {
		m    *lockservice.ResourceMapper
		keys []string
	}
	var parts []part
	for _, r := range reqs {
		byShard := map[int][]string{}
		for _, k := range r {
			s, _ := ring.Lookup(k)
			byShard[s] = append(byShard[s], k)
		}
		for s, ks := range byShard {
			parts = append(parts, part{rt.Shard(s).Mapper(), ks})
		}
	}
	return timeReplay("replay.mapsession", clk, len(parts), spans, func() {
		for _, p := range parts {
			if _, _, err := p.m.MapSession(p.keys); err != nil {
				panic(err) // the service granted these sets, so they map
			}
		}
	})
}

// isSpanSession reports whether a session ID names a cross-shard span.
func isSpanSession(id string) bool { return strings.HasPrefix(id, "span:") }

// layerReport computes the per-layer metrics of the traced window, and
// of the failover probe after it. It returns the metrics every workload
// reports and those only some workloads have.
func layerReport(e *env, l *load) (common, specific []metric) {
	win := l.windows[tracedWin]
	d := l.counters[tracedWin+1].sub(l.counters[tracedWin])
	spans := l.spans

	// Client spans come from the op log: its send/grant/release
	// readings are taken around the client calls.
	var reqs [][]string
	var sessions []string
	for i, r := range l.ops {
		if !within(r.start, win) || r.status == opAcquireFailed {
			continue
		}
		spans = append(spans, span{name: "wire.acquire", start: r.start, end: r.grant, parent: -1, req: int64(i), session: r.session})
		spans = append(spans, span{name: "wire.release", start: r.relSend, end: r.relDone, parent: -1, req: int64(i), session: r.session})
		if len(reqs) < replayCap {
			reqs = append(reqs, r.req.names(e.in.cat))
			sessions = append(sessions, r.session)
		}
	}
	linkBySession(spans, "wire.acquire", "router.acquire")
	linkBySession(spans, "wire.release", "router.release")
	children := childIntervals(spans)

	var wireSelf, routerAll, routerSelf, spanAcq, wait []float64
	for i, s := range spans {
		switch {
		case s.name == "wire.acquire" && len(children[i]) > 0:
			self := selfTime(interval{s.start, s.end}, children[i])
			wireSelf = append(wireSelf, float64(self)/1e3)
		case s.name == "router.acquire" && s.session != "":
			routerAll = append(routerAll, float64(s.dur())/1e3)
			if isSpanSession(s.session) {
				spanAcq = append(spanAcq, float64(s.dur())/1e3)
			} else {
				routerSelf = append(routerSelf, float64(s.dur()-s.wait)/1e3)
				wait = append(wait, float64(s.wait)/1e3)
			}
		}
	}

	var queued, maxQueue, scrapeLen []float64
	var lagMax uint64
	for _, s := range l.samples {
		if !within(s.at, win) {
			continue
		}
		queued = append(queued, float64(s.queued))
		maxQueue = append(maxQueue, float64(s.maxQueue))
		if s.lag > lagMax {
			lagMax = s.lag
		}
		if s.scrapeNS > 0 {
			scrapeLen = append(scrapeLen, float64(s.scrapeLen))
		}
	}
	var shareMax, shareSum int64
	for _, n := range d.shardRequests {
		shareSum += n
		if n > shareMax {
			shareMax = n
		}
	}
	hot := 0.0
	if ctl := e.rt.Controller(); ctl != nil {
		hot = ctl.Snapshot().HotFraction
	}
	// Migrations happen early, mostly before the traced window, so the
	// control counters cover the whole run.
	whole := l.counters[len(l.counters)-1].sub(l.counters[0])
	// Failover counters cover the probe, when there is one.
	probe := d
	if len(l.windows) > probeWin {
		probe = l.counters[probeWin+1].sub(l.counters[probeWin])
	}

	var replays []span
	ring := ringFrom(e.rt.RingInfo())
	perFrame := int(ratio{float64(d.serverEntries), float64(d.serverFrames)}.value() + 0.5)
	codecNS := replayCodec(e.clk, reqs, sessions, perFrame, &replays)
	lookupNS := replayLookup(e.clk, ring, reqs, &replays)
	mapNS := replayMap(e.clk, e.rt, ring, reqs, &replays)
	l.spans = append(spans, replays...)

	untracedGPS := float64(clientStats(l.ops, l.windows[untracedWin]).grants)
	tracedGPS := float64(clientStats(l.ops, win).grants)
	common = []metric{
		pctMetric("wire.self_p50_us", "us", wireSelf, 0.5),
		pctMetric("wire.self_p99_us", "us", wireSelf, 0.99),
		ratioMetric("wire.entries_per_write", d.clientEntries, d.clientWrites),
		ratioMetric("wire.entries_per_frame", d.serverEntries, d.serverFrames),
		{"wire.codec_ns_per_entry", "ns", codecNS, "median of 5 replays"},
		countMetric("wire.retries", d.retries),
		pctMetric("router.acquire_p50_us", "us", routerAll, 0.5),
		pctMetric("router.acquire_p99_us", "us", routerAll, 0.99),
		pctMetric("router.self_p50_us", "us", routerSelf, 0.5),
		ratioMetric("router.span_commit_ratio", d.spanCommits, d.spanAcquires),
		countMetric("router.span_rollbacks", d.spanRollbacks),
		countMetric("router.wrong_shard", d.wrongShard),
		countMetric("router.migration_fences", d.fences),
		ratioMetric("router.shard_share_max", shareMax, shareSum),
		{"shard.lookup_ns", "ns", lookupNS, "median of 5 replays"},
		{"sessionmap.map_ns", "ns", mapNS, "median of 5 replays"},
		pctMetric("server.wait_p50_us", "us", wait, 0.5),
		pctMetric("server.wait_p99_us", "us", wait, 0.99),
		ratioMetric("server.grant_ratio", d.grants, d.acquireRequests),
		countMetric("server.rejected_timeout", d.rejTimeout),
		countMetric("server.rejected_queue_full", d.rejQueueFull),
		{"drinkers.queue_depth_mean", "sessions", mean(queued), trimFloat(float64(len(queued))) + " samples"},
		{"drinkers.queue_depth_max", "sessions", maxOf(maxQueue), trimFloat(float64(len(maxQueue))) + " samples"},
		ratioMetric("msgpass.msgs_per_grant", d.msgs, d.grants),
		ratioMetric("msgpass.eats_per_grant", d.eats, d.grants),
		countMetric("msgpass.dropped", d.dropped),
		{"replication.lag_max", "records", float64(lagMax), trimFloat(float64(len(queued))) + " samples"},
		countMetric("failover.leaderless_rejections", probe.leaderless),
		countMetric("failover.leases_adopted", probe.adopted),
		countMetric("control.moves", whole.moves),
		countMetric("control.aborted", whole.aborted),
		{"control.hot_fraction", "1", hot, "controller snapshot at the end"},
		{"metrics.scrape_bytes", "bytes", median(scrapeLen), trimFloat(float64(len(scrapeLen))) + " scrapes"},
		{"trace.overhead_frac", "1", ratio{tracedGPS, untracedGPS}.value(), "traced/untraced grants_per_s: " + ratio{tracedGPS, untracedGPS}.String()},
	}

	if len(spanAcq) > 0 {
		specific = append(specific, pctMetric("router.span_acquire_p99_us", "us", spanAcq, 0.99))
	}
	if len(l.windows) > probeWin {
		specific = append(specific, failoverMetrics(e, l, l.windows[probeWin])...)
	}
	if t := firstMove(l.samples, l.loadStart); t >= 0 {
		specific = append(specific, metric{"control.first_move_s", "s", float64(t) / 1e9, "polled every " + sampleEvery.String()})
	}
	return common, specific
}

// failoverMetrics reports the kills in window w.
func failoverMetrics(e *env, l *load, w [2]int64) []metric {
	var settle []float64
	for _, k := range l.kills {
		if within(k.at, w) {
			settle = append(settle, float64(k.settle)/1e6)
		}
	}
	var promo []float64
	for _, p := range e.rt.Metrics().PromotionDurations() {
		promo = append(promo, float64(p)/float64(time.Millisecond))
	}
	return []metric{
		pctMetric("failover.blackout_ms", "ms", blackouts(l.ops, l.kills, e.in.cat, w), 0.5),
		pctMetric("failover.settle_ms", "ms", settle, 0.5),
		pctMetric("failover.promotion_p50_ms", "ms", promo, 0.5),
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
