package lockservice

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"mcdp/internal/control"
	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// AcquireRequest is the body of POST /v1/acquire.
type AcquireRequest struct {
	// Resources are the lock names to acquire atomically.
	Resources []string `json:"resources"`
	// TimeoutMS optionally caps the wait for a grant (server clamps to
	// its configured maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TTLMS optionally overrides the lease time-to-live.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Client optionally identifies the requester (logging only).
	Client string `json:"client,omitempty"`
	// RingGen, when non-zero, is the ring generation the client routed
	// under; a Router rejects a stale generation with 409 so the client
	// re-resolves key placement before retrying.
	RingGen uint64 `json:"ring_gen,omitempty"`
}

// AcquireResponse is the body of a successful acquire.
type AcquireResponse struct {
	SessionID string   `json:"session_id"`
	Node      int      `json:"node"`
	Resources []string `json:"resources"`
	WaitMS    float64  `json:"wait_ms"`
}

// ReleaseRequest is the body of POST /v1/release.
type ReleaseRequest struct {
	SessionID string `json:"session_id"`
}

// ReleaseResponse is the body of a successful release.
type ReleaseResponse struct {
	Released bool `json:"released"`
}

// RenewRequest is the body of POST /v1/renew.
type RenewRequest struct {
	SessionID string `json:"session_id"`
	// TTLMS optionally overrides the lease time-to-live; 0 renews for
	// the server default.
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// RenewResponse is the body of a successful renew.
type RenewResponse struct {
	Renewed bool `json:"renewed"`
	// TTLMS is the granted lease lifetime from now.
	TTLMS int64 `json:"ttl_ms"`
}

// NodeStatus is one worker's row in GET /v1/status.
type NodeStatus struct {
	ID          int    `json:"id"`
	Shard       int    `json:"shard,omitempty"`
	State       string `json:"state"`
	Dead        bool   `json:"dead"`
	Departed    bool   `json:"departed,omitempty"`
	Depth       int    `json:"depth"`
	Events      int64  `json:"events"`
	Eats        int64  `json:"eats"`
	QueueDepth  int    `json:"queue_depth"`
	Incarnation int64  `json:"incarnation"`
}

// StatusReport is the body of GET /v1/status: the Router's aggregate
// (ShardID -1, Shards the shard count, RingGen the current ring
// generation) with each shard's own report, ShardID set, under Reports.
type StatusReport struct {
	Topology     string       `json:"topology"`
	ShardID      int          `json:"shard_id"`
	Shards       int          `json:"shards,omitempty"`
	RingGen      uint64       `json:"ring_gen"`
	Workers      int          `json:"workers"`
	Locks        int          `json:"locks"`
	Edges        []string     `json:"edges"`
	Nodes        []NodeStatus `json:"nodes"`
	ActiveLeases int          `json:"active_leases"`
	QueueDepth   int          `json:"queue_depth"`
	Grants       int64        `json:"grants"`
	UptimeMS     int64        `json:"uptime_ms"`
	Draining     bool         `json:"draining"`
	// Failover fields, filled by a Router for per-shard reports:
	// Role is "primary" or "halted", ShardIncarnation counts promotions
	// (starts at 1), Standbys is the live hot-standby count, and
	// ReplicationLag is the widest standby lag in lease records.
	Role             string         `json:"role,omitempty"`
	ShardIncarnation uint64         `json:"incarnation,omitempty"`
	Standbys         int            `json:"standbys,omitempty"`
	ReplicationLag   int64          `json:"replication_lag,omitempty"`
	Reports          []StatusReport `json:"reports,omitempty"`
	// Control, filled by a Router with the rebalance loop running: the
	// controller's sensor snapshot (per-shard load and top-K keys),
	// derived tuning, and the override table version.
	Control *ControlReport `json:"control,omitempty"`
}

// ControlReport is the rebalance controller's /v1/status section.
type ControlReport struct {
	control.Status
	// OverrideCount is the number of keys pinned off their hash homes;
	// OverrideGen is the ring generation of the last override change —
	// the override table's version under the generation protocol.
	OverrideCount int    `json:"override_count"`
	OverrideGen   uint64 `json:"override_gen"`
}

// ErrorResponse is the body of every non-2xx response. RingGen rides
// along on 409 wrong-shard rejections so the client can refresh its
// cached generation without a /v1/ring round-trip.
type ErrorResponse struct {
	Error   string `json:"error"`
	RingGen uint64 `json:"ring_gen,omitempty"`
}

// CrashResponse is the body of a successful fault injection.
type CrashResponse struct {
	Node  int    `json:"node"`
	Steps int    `json:"steps"`
	Mode  string `json:"mode"`
}

// RestartResponse is the body of a successful node restart.
type RestartResponse struct {
	Node int `json:"node"`
	// Mode is "clean" or "arbitrary".
	Mode string `json:"mode"`
	// Fenced is how many leases homed at the node were revoked.
	Fenced int `json:"fenced"`
}

// Status assembles the current status report.
func (s *Server) Status() StatusReport {
	table := s.nw.Table()
	depths := s.arb.QueueDepths()
	rep := StatusReport{
		Topology: s.g.String(),
		ShardID:  s.cfg.ShardID,
		RingGen:  s.ringGen.Load(),
		Workers:  s.g.N(),
		Locks:    s.g.EdgeCount(),
		Grants:   s.metrics.Grants.Load(),
		UptimeMS: s.Uptime().Milliseconds(),
	}
	for _, e := range s.g.Edges() {
		rep.Edges = append(rep.Edges, EdgeName(e))
	}
	for p, snap := range table {
		st := snap.State.String()
		if !snap.State.Valid() {
			st = "?"
		}
		rep.Nodes = append(rep.Nodes, NodeStatus{
			ID: p, Shard: s.cfg.ShardID, State: st, Dead: snap.Dead,
			Departed: s.Departed(graph.ProcID(p)), Depth: snap.Depth,
			Events: snap.Events, Eats: snap.Eats, QueueDepth: depths[p],
			Incarnation: snap.Incarnation,
		})
		rep.QueueDepth += depths[p]
	}
	rep.ActiveLeases = s.ActiveLeases()
	s.mu.Lock()
	rep.Draining = s.draining
	s.mu.Unlock()
	return rep
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// maxBodyBytes caps every JSON request body; a larger one is 413.
const maxBodyBytes = 64 << 10

// decodeBody decodes a POST's JSON body, capped at maxBodyBytes, into
// v. It answers 405, 413 or 400 itself and returns false when the
// method is wrong or the body does not decode.
func decodeBody(w http.ResponseWriter, req *http.Request, v any) bool {
	if req.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		return true
	}
	return false
}

// statusFor maps the server's sentinel errors onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnmappable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrWrongShard), errors.Is(err, ErrSpanAborted), errors.Is(err, ErrDeposed):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrTimeout):
		return http.StatusRequestTimeout
	case errors.Is(err, ErrDraining), errors.Is(err, ErrUnserviceable),
		errors.Is(err, ErrHalted), errors.Is(err, ErrLeaderless):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleCrash(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("node query parameter required"))
		return
	}
	steps := 0
	if v := r.URL.Query().Get("steps"); v != "" {
		steps, err = strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, errors.New("steps must be an integer"))
			return
		}
	}
	if err := s.InjectCrash(graph.ProcID(node), steps); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	mode := "malicious"
	if steps <= 0 {
		mode = "benign"
	}
	writeJSON(w, http.StatusOK, CrashResponse{Node: node, Steps: steps, Mode: mode})
}

func (s *Server) handleRestart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("node query parameter required"))
		return
	}
	mode := msgpass.RestartClean
	switch r.URL.Query().Get("mode") {
	case "", "clean":
	case "garbage", "arbitrary":
		mode = msgpass.RestartArbitrary
	default:
		writeErr(w, http.StatusBadRequest, errors.New("mode must be clean or garbage"))
		return
	}
	fenced, err := s.RestartNode(graph.ProcID(node), mode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, RestartResponse{Node: node, Mode: mode.String(), Fenced: fenced})
}

// MembershipResponse is the body of a successful leave or join.
type MembershipResponse struct {
	Node int `json:"node"`
	// Op is "leave" or "join".
	Op string `json:"op"`
	// Fenced is how many leases the leave revoked (0 for joins).
	Fenced int `json:"fenced"`
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	node, ok := membershipNode(w, r)
	if !ok {
		return
	}
	fenced, err := s.LeaveNode(graph.ProcID(node))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, MembershipResponse{Node: node, Op: "leave", Fenced: fenced})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	node, ok := membershipNode(w, r)
	if !ok {
		return
	}
	if err := s.JoinNode(graph.ProcID(node)); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, MembershipResponse{Node: node, Op: "join"})
}

// membershipNode validates the shared method/query contract of the
// leave and join endpoints.
func membershipNode(w http.ResponseWriter, r *http.Request) (int, bool) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return 0, false
	}
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("node query parameter required"))
		return 0, false
	}
	return node, true
}
