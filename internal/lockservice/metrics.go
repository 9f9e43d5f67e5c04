package lockservice

import (
	"strconv"
	"sync/atomic"

	"mcdp/internal/stats"
)

// Metrics is one server's observability surface: plain atomic counters
// plus latency histograms, exported as typed families (families) that
// the Router merges into its Prometheus text exposition.
type Metrics struct {
	AcquireRequests       atomic.Int64
	Grants                atomic.Int64
	Releases              atomic.Int64
	Renewals              atomic.Int64
	Expirations           atomic.Int64
	RejectedQueueFull     atomic.Int64
	RejectedTimeout       atomic.Int64
	RejectedUnmappable    atomic.Int64
	RejectedUnserviceable atomic.Int64
	RejectedDraining      atomic.Int64
	CrashesInjected       atomic.Int64
	NodeRestarts          atomic.Int64
	NodeLeaves            atomic.Int64
	NodeJoins             atomic.Int64
	LeasesFenced          atomic.Int64
	LeasesAdopted         atomic.Int64

	// WaitHist observes hungry time: seconds from submission to grant.
	WaitHist *stats.LatencyHistogram
	// HoldHist observes lease hold time: seconds from grant to release.
	HoldHist *stats.LatencyHistogram
}

// NewMetrics returns a zeroed metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		WaitHist: stats.NewLatencyHistogram(stats.DefaultLatencyBounds()),
		HoldHist: stats.NewLatencyHistogram(stats.DefaultLatencyBounds()),
	}
}

// families returns the server's exposition as typed families — request
// counters, queue/lease gauges, per-node diners state, substrate
// message counters, and the wait/hold histograms; the router merges
// its primaries' families from here.
func (s *Server) families() []stats.Family {
	m := s.metrics
	dropped, duplicated, corrupted, delayed := s.nw.FaultsInjected()
	depths := s.arb.QueueDepths()
	total := 0
	for _, d := range depths {
		total += d
	}
	table := s.nw.Table()
	return []stats.Family{
		stats.Counter("dinerd_acquire_requests_total", "Acquire requests received.", m.AcquireRequests.Load()),
		stats.Counter("dinerd_grants_total", "Sessions granted.", m.Grants.Load()),
		stats.Counter("dinerd_releases_total", "Sessions released by clients.", m.Releases.Load()),
		stats.Counter("dinerd_lease_renewals_total", "Lease TTL extensions granted.", m.Renewals.Load()),
		stats.Counter("dinerd_lease_expirations_total", "Leases expired by the server-side TTL janitor.", m.Expirations.Load()),
		stats.Counter("dinerd_rejected_queue_full_total", "Acquires rejected for backpressure (429).", m.RejectedQueueFull.Load()),
		stats.Counter("dinerd_rejected_timeout_total", "Acquires that timed out waiting (408).", m.RejectedTimeout.Load()),
		stats.Counter("dinerd_rejected_unmappable_total", "Acquires naming resource sets with no common worker (422).", m.RejectedUnmappable.Load()),
		stats.Counter("dinerd_rejected_unserviceable_total", "Acquires whose candidate workers are all dead (503).", m.RejectedUnserviceable.Load()),
		stats.Counter("dinerd_rejected_draining_total", "Acquires rejected during drain (503).", m.RejectedDraining.Load()),
		stats.Counter("dinerd_crashes_injected_total", "Faults injected through the admin endpoint.", m.CrashesInjected.Load()),
		stats.Counter("dinerd_node_restarts_total", "Worker restarts (admin endpoint and supervisor).", m.NodeRestarts.Load()),
		stats.Counter("dinerd_node_leaves_total", "Workers removed from service (membership leave).", m.NodeLeaves.Load()),
		stats.Counter("dinerd_node_joins_total", "Departed workers readmitted (membership join).", m.NodeJoins.Load()),
		stats.Counter("dinerd_leases_fenced_total", "Leases revoked because their home worker restarted.", m.LeasesFenced.Load()),
		stats.Counter("dinerd_leases_adopted_total", "Replicated leases re-granted by a promoted standby.", m.LeasesAdopted.Load()),
		stats.Counter("dinerd_messages_sent_total", "Frames sent by the diners substrate.", s.nw.MessagesSent()),
		stats.Counter("dinerd_messages_dropped_total", "Frames dropped to full inboxes.", s.nw.MessagesDropped()),
		stats.Counter("dinerd_messages_lost_total", "Frames lost in transit (loss injection / partitions).", s.nw.MessagesLost()),
		stats.Counter("dinerd_transport_reconnects_total", "TCP edge reconnections after restarts or socket loss.", s.nw.Reconnects()),
		stats.Counter("dinerd_faults_dropped_total", "Frames dropped by the chaos fault injector.", dropped),
		stats.Counter("dinerd_faults_duplicated_total", "Frames duplicated by the chaos fault injector.", duplicated),
		stats.Counter("dinerd_faults_corrupted_total", "Frames payload-corrupted by the chaos fault injector.", corrupted),
		stats.Counter("dinerd_faults_delayed_total", "Channel stalls injected by the chaos fault injector.", delayed),
		stats.Gauge("dinerd_queue_depth", "Pending sessions across all worker queues.", float64(total)),
		stats.Gauge("dinerd_active_leases", "Currently granted, unreleased leases.", float64(s.ActiveLeases())),
		indexed("dinerd_node_queue_depth", "Pending sessions per worker.", "gauge", "node", len(depths), func(p int) float64 { return float64(depths[p]) }),
		indexed("dinerd_node_state", "Diners state per worker (1=thinking 2=hungry 3=eating, 0=dead).", "gauge", "node", len(table), func(p int) float64 {
			if table[p].Dead {
				return 0
			}
			return float64(table[p].State)
		}),
		indexed("dinerd_node_eats_total", "Completed diners eating sessions per worker.", "counter", "node", len(table), func(p int) float64 { return float64(table[p].Eats) }),
		stats.HistogramFamily("dinerd_acquire_wait_seconds", "Hungry time: submission to grant.", m.WaitHist),
		stats.HistogramFamily("dinerd_lease_hold_seconds", "Lease hold time: grant to release.", m.HoldHist),
	}
}

// indexed returns a family of one sample per index 0..n-1, labelled
// label="i": the per-worker and per-shard series.
func indexed(name, help, typ, label string, n int, val func(i int) float64) stats.Family {
	f := stats.Family{Name: name, Help: help, Type: typ, Samples: make([]stats.Sample, n)}
	for i := range f.Samples {
		f.Samples[i] = stats.Sample{Name: name, Labels: []stats.Label{{Name: label, Value: strconv.Itoa(i)}}, Value: val(i)}
	}
	return f
}
