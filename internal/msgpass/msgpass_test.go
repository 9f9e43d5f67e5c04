package msgpass

import (
	"sync/atomic"
	"testing"
	"time"

	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/sim"
)

// runFor starts the network, lets it run for d, and stops it.
func runFor(nw *Network, d time.Duration) {
	nw.Start()
	time.Sleep(d)
	nw.Stop()
}

func TestEdgeStateTokenProtocol(t *testing.T) {
	low := edgeState{low: true, heard: true}
	if !low.holds() {
		t.Fatal("low endpoint with equal counters must hold")
	}
	low.pass()
	if low.holds() {
		t.Fatal("after passing, low must not hold")
	}
	high := edgeState{low: false, counter: 1, peerCounter: 1, heard: true}
	if high.holds() {
		t.Fatal("high endpoint with equal counters must not hold... counters equal means low holds")
	}
	high.peerCounter = 0
	if !high.holds() {
		t.Fatal("high endpoint with differing counters must hold")
	}
	high.pass()
	if high.holds() {
		t.Fatal("after passing, high must not hold")
	}
}

func TestSenderHeldJudgment(t *testing.T) {
	// We are the low endpoint with counter 3. The high peer held the
	// token iff its counter differed from ours at send time.
	low := edgeState{low: true, counter: 3}
	if low.senderHeld(3) {
		t.Error("high sender with equal counter did not hold")
	}
	if !low.senderHeld(4) {
		t.Error("high sender with differing counter held")
	}
	// We are the high endpoint with counter 5; the low peer held iff its
	// counter equals ours.
	high := edgeState{low: false, counter: 5}
	if !high.senderHeld(5) {
		t.Error("low sender with equal counter held")
	}
	if high.senderHeld(6) {
		t.Error("low sender with differing counter did not hold")
	}
}

func TestTokenExclusivityInvariant(t *testing.T) {
	// Simulate a full exchange: at most one endpoint holds at any point,
	// and between pass and delivery, neither does.
	low := edgeState{low: true, heard: true}
	high := edgeState{low: false, heard: true}
	deliverToHigh := func() { high.peerCounter = low.counter }
	deliverToLow := func() { low.peerCounter = high.counter }
	for i := 0; i < 3*kStates; i++ {
		if low.holds() && high.holds() {
			t.Fatal("both endpoints hold")
		}
		switch {
		case low.holds():
			low.pass()
			if low.holds() {
				t.Fatal("low still holds after pass")
			}
			deliverToHigh()
			if !high.holds() {
				t.Fatal("high did not receive the token")
			}
		case high.holds():
			high.pass()
			deliverToLow()
			if !low.holds() {
				t.Fatal("low did not receive the token")
			}
		default:
			t.Fatal("token lost")
		}
	}
}

// TestCleanRestartResyncsFromFirstFrame covers the humble-reboot rule:
// after a clean restart an edge is unheard — the node holds nothing on
// it regardless of counter parity — and the first frame from the peer
// syncs the node to the non-holding counter, so the token regenerates
// at the live peer instead of being forged by the zeroed boot state.
func TestCleanRestartResyncsFromFirstFrame(t *testing.T) {
	nw := NewNetwork(Config{Graph: graph.Path(2), Algorithm: core.NewMCDP()})
	n0 := nw.procs.Load().nodes[0] // low endpoint of edge 0-1
	n0.applyRestart(RestartClean)
	e := &n0.edges[0]
	if e.heard {
		t.Fatal("clean restart must mark edges unheard")
	}
	if e.holds() {
		t.Fatal("unheard edge held despite equal zeroed counters")
	}
	n0.handle(message{edgeIdx: e.idx, from: 1, counter: 5, state: core.Hungry, depth: 1, priority: 1})
	if !e.heard {
		t.Fatal("first frame must mark the edge heard")
	}
	if e.peerCounter != 5 || e.counter != 6 {
		t.Fatalf("sync adopted (counter=%d, peerCounter=%d), want the non-holding pair (6, 5)", e.counter, e.peerCounter)
	}
	if e.holds() {
		t.Fatal("low endpoint holds after syncing to the non-holding counter")
	}
	if e.peerState != core.Hungry || e.peerDepth != 1 || e.priority != 1 {
		t.Fatalf("sync must adopt the peer's frame wholesale: %+v", *e)
	}

	// A garbage restart keeps its edges heard: arbitrary state owes no
	// humility — stabilization handles it, and the exclusion oracles
	// grant its first session the post-garbage exemption instead.
	n0.applyRestart(RestartArbitrary)
	if !e.heard {
		t.Fatal("garbage restart must leave edges heard")
	}
}

func TestKStateStabilizesFromGarbage(t *testing.T) {
	// From any counter pair, after each endpoint hears the other once,
	// exactly one endpoint holds.
	for c0 := uint8(0); c0 < kStates; c0++ {
		for c1 := uint8(0); c1 < kStates; c1++ {
			low := edgeState{low: true, counter: c0, peerCounter: 99, heard: true}
			high := edgeState{low: false, counter: c1, peerCounter: 99, heard: true}
			low.peerCounter = high.counter
			high.peerCounter = low.counter
			l, h := low.holds(), high.holds()
			if l == h {
				t.Fatalf("counters (%d,%d): low=%v high=%v, want exactly one holder", c0, c1, l, h)
			}
		}
	}
}

func TestNetworkValidation(t *testing.T) {
	if r := func() (r bool) {
		defer func() { r = recover() != nil }()
		NewNetwork(Config{Algorithm: core.NewMCDP()})
		return false
	}(); !r {
		t.Error("NewNetwork without graph must panic")
	}
	if r := func() (r bool) {
		defer func() { r = recover() != nil }()
		NewNetwork(Config{Graph: graph.Ring(3)})
		return false
	}(); !r {
		t.Error("NewNetwork without algorithm must panic")
	}
}

func TestEveryoneEatsOverMessagePassing(t *testing.T) {
	g := graph.Ring(5)
	nw := NewNetwork(Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		Seed:             1,
	})
	runFor(nw, 400*time.Millisecond)
	for p, e := range nw.Eats() {
		if e < 2 {
			t.Errorf("node %d ate %d times over message passing, want >= 2", p, e)
		}
	}
	if nw.MessagesSent() == 0 {
		t.Error("no messages sent")
	}
}

func TestSafetyOverMessagePassing(t *testing.T) {
	g := graph.Complete(4) // max contention
	nw := NewNetwork(Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		Seed:             2,
	})
	runFor(nw, 400*time.Millisecond)
	if bad := nw.OverlappingNeighborSessions(); len(bad) != 0 {
		t.Errorf("neighbor eating sessions overlapped:\n%v", bad)
	}
	total := int64(0)
	for _, e := range nw.Eats() {
		total += e
	}
	if total == 0 {
		t.Error("nobody ate on the complete graph")
	}
}

// The benign- and malicious-crash locality tests that lived here were
// ported to the deterministic harness, where the crash round is exact
// and the locality oracle runs per step instead of across sleep
// windows: see detsim.TestBenignCrashLocalityDeterministic and
// detsim.TestMaliciousCrashLocalityDeterministic.

func TestStabilizationFromGarbageOverMessagePassing(t *testing.T) {
	g := graph.Ring(4)
	nw := NewNetwork(Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		Seed:             5,
	})
	nw.InitArbitrary(99)
	nw.Start()
	// Let it converge, then measure from a clean baseline.
	time.Sleep(200 * time.Millisecond)
	before := nw.Eats()
	sessionsBefore := len(nw.Sessions())
	time.Sleep(400 * time.Millisecond)
	nw.Stop()
	after := nw.Eats()
	for p := range after {
		if after[p] <= before[p] {
			t.Errorf("node %d not eating after stabilization window", p)
		}
	}
	// Safety after convergence: check only sessions that started after
	// the stabilization window.
	sessions := nw.Sessions()[sessionsBefore:]
	for i := 0; i < len(sessions); i++ {
		for j := i + 1; j < len(sessions); j++ {
			a, b := sessions[i], sessions[j]
			if a.Proc == b.Proc || !g.HasEdge(a.Proc, b.Proc) {
				continue
			}
			if a.Start.Before(b.End) && b.Start.Before(a.End) {
				t.Errorf("post-convergence overlap: %d and %d", a.Proc, b.Proc)
			}
		}
	}
}

func TestLossToleranceOfTheGossipLayer(t *testing.T) {
	// Drop 30% of all frames: the system must still keep everyone
	// eating (slower, but alive) and must never violate safety — every
	// frame is a full-state gossip, so loss only delays.
	g := graph.Ring(5)
	nw := NewNetwork(Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		LossRate:         0.3,
		Seed:             6,
	})
	runFor(nw, 600*time.Millisecond)
	if nw.MessagesLost() == 0 {
		t.Fatal("the loss injector dropped nothing")
	}
	for p, e := range nw.Eats() {
		if e == 0 {
			t.Errorf("node %d never ate under 30%% frame loss", p)
		}
	}
	if bad := nw.OverlappingNeighborSessions(); len(bad) != 0 {
		t.Errorf("safety violated under loss:\n%v", bad)
	}
	lossFrac := float64(nw.MessagesLost()) / float64(nw.MessagesSent())
	if lossFrac < 0.2 || lossFrac > 0.4 {
		t.Errorf("empirical loss fraction %.2f, want ~0.3", lossFrac)
	}
}

func TestMultipleSimultaneousCrashes(t *testing.T) {
	// Two malicious crashes at once on ring(10): the union-of-balls
	// containment (experiment E12) over real goroutines. Nodes at
	// distance >= 3 from BOTH crashes (victims 0 and 5 -> nodes 3 and 8
	// alone... distances: node 3 is 3 from 0 and 2 from 5; on ring(10)
	// distance(3,5)=2. Pick victims 0 and 5: far nodes need min dist >=
	// 3 from both: node 2 (2,3)? no. Use victims 0 and 4: node 7 is
	// dist 3 from 0 (via 8,9) and 3 from 4. Node 8: 2 from 0. So check
	// node 7 only.
	g := graph.Ring(10)
	nw := NewNetwork(Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		Seed:             9,
	})
	nw.Start()
	time.Sleep(80 * time.Millisecond)
	nw.CrashMaliciously(0, 20)
	nw.CrashMaliciously(4, 20)
	time.Sleep(250 * time.Millisecond)
	before := nw.Eats()
	time.Sleep(450 * time.Millisecond)
	nw.Stop()
	after := nw.Eats()
	if after[7] <= before[7] {
		t.Error("node 7 (distance >= 3 from both crashes) stopped eating")
	}
	table := nw.Table()
	if !table[0].Dead || !table[4].Dead {
		t.Error("victims did not halt")
	}
}

func TestPartitionHeals(t *testing.T) {
	// Isolate a node mid-run (all its frames lost both ways), heal, and
	// verify the system resynchronizes: everyone — including the
	// formerly partitioned node — eats afterwards, and sessions begun
	// after healing never overlap.
	g := graph.Ring(5)
	nw := NewNetwork(Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		Seed:             8,
	})
	nw.Start()
	time.Sleep(100 * time.Millisecond)
	nw.SetPartitioned(2, true)
	time.Sleep(200 * time.Millisecond)
	nw.SetPartitioned(2, false)
	time.Sleep(100 * time.Millisecond) // resync window
	healedAt := len(nw.Sessions())
	before := nw.Eats()
	time.Sleep(400 * time.Millisecond)
	nw.Stop()
	after := nw.Eats()
	for p := range after {
		if after[p] <= before[p] {
			t.Errorf("node %d not eating after the partition healed", p)
		}
	}
	sessions := nw.Sessions()[healedAt:]
	for i := 0; i < len(sessions); i++ {
		for j := i + 1; j < len(sessions); j++ {
			a, b := sessions[i], sessions[j]
			if a.Proc == b.Proc || !g.HasEdge(a.Proc, b.Proc) {
				continue
			}
			if a.Start.Before(b.End) && b.Start.Before(a.End) {
				t.Errorf("post-heal overlap between %d and %d", a.Proc, b.Proc)
			}
		}
	}
	if nw.MessagesLost() == 0 {
		t.Error("the partition lost no frames (not exercised)")
	}
}

func TestDynamicNeedsDrivesEating(t *testing.T) {
	// Start with nobody hungry: no one may ever eat. Then flip one node's
	// needs on via the thread-safe control surface and it must start
	// eating; flip it off and its meal count must settle.
	g := graph.Ring(4)
	hungry := make([]bool, g.N())
	nw := NewNetwork(Config{
		Graph:            g,
		Algorithm:        core.NewMCDP(),
		DiameterOverride: sim.SafeDepthBound(g),
		Hungry:           hungry,
		Seed:             7,
	})
	nw.Start()
	defer nw.Stop()
	time.Sleep(100 * time.Millisecond)
	for p, e := range nw.Eats() {
		if e != 0 {
			t.Fatalf("node %d ate %d times with needs() false everywhere", p, e)
		}
	}
	nw.SetNeeds(2, true)
	if !nw.Needs(2) {
		t.Fatal("SetNeeds(2, true) not visible through Needs")
	}
	deadline := time.Now().Add(2 * time.Second)
	for nw.Eats()[2] < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if nw.Eats()[2] < 2 {
		t.Fatalf("node 2 ate %d times after becoming needy, want >= 2", nw.Eats()[2])
	}
	nw.SetNeeds(2, false)
	time.Sleep(50 * time.Millisecond) // let any in-flight meal finish
	settled := nw.Eats()[2]
	time.Sleep(150 * time.Millisecond)
	if got := nw.Eats()[2]; got != settled {
		t.Errorf("node 2 kept eating after needs went false: %d -> %d", settled, got)
	}
	for _, p := range []int{0, 1, 3} {
		if e := nw.Eats()[p]; e != 0 {
			t.Errorf("node %d ate %d times though never needy", p, e)
		}
	}
}

func TestSnapshotHookFires(t *testing.T) {
	g := graph.Ring(3)
	var hooks atomic.Int64
	nw := NewNetwork(Config{
		Graph:     g,
		Algorithm: core.NewMCDP(),
		Seed:      1,
		OnSnapshot: func(p graph.ProcID, s Snapshot) {
			hooks.Add(1)
		},
	})
	runFor(nw, 100*time.Millisecond)
	if hooks.Load() == 0 {
		t.Error("OnSnapshot never fired")
	}
	if got := nw.Snapshot(0); got.Events == 0 {
		t.Error("Snapshot(0) shows no processed events")
	}
	if nw.Graph() != g {
		t.Error("Graph() does not return the configured topology")
	}
}

func TestStopIdempotentAndStartTwicePanics(t *testing.T) {
	nw := NewNetwork(Config{Graph: graph.Ring(3), Algorithm: core.NewMCDP()})
	nw.Start()
	nw.Stop()
	nw.Stop() // must not panic or deadlock
	defer func() {
		if recover() == nil {
			t.Error("second Start must panic")
		}
	}()
	nw.Start()
}

func TestInitArbitraryAfterStartPanics(t *testing.T) {
	nw := NewNetwork(Config{Graph: graph.Ring(3), Algorithm: core.NewMCDP()})
	nw.Start()
	defer nw.Stop()
	defer func() {
		if recover() == nil {
			t.Error("InitArbitrary after Start must panic")
		}
	}()
	nw.InitArbitrary(1)
}

// TestExitYieldsToDeadDescendant: node 0 has a dead descendant 1 whose
// frozen garbage depth exceeds D, and node 0 does not hold the edge
// token (a dead peer never returns it). fixdepth copies the depth, exit
// fires, and its yield must make 1 an ancestor right away; otherwise
// fixdepth copies the dead depth again after every exit, and the
// resulting depth > D exits spread past distance 2.
func TestExitYieldsToDeadDescendant(t *testing.T) {
	nw := NewNetwork(Config{Graph: graph.Path(2), Algorithm: core.NewMCDP(), Hungry: []bool{false, false}})
	n := nw.procs.Load().nodes[0]
	e := n.edgeTo(1)
	e.peerCounter = 1 // node 0 is the low endpoint: it holds iff counters match
	e.peerDepth = n.d + 5
	if e.holds() || n.view.HasPriority(1) {
		t.Fatal("set-up: node 0 must be the ancestor and lack the token")
	}
	n.act()
	if !n.view.HasPriority(1) || n.depth != 0 {
		t.Fatalf("after act: peer is ancestor %v, depth %d; want true, 0", n.view.HasPriority(1), n.depth)
	}
	if !e.pendingYield {
		t.Fatal("the yield must stay pending until node 0 holds the token")
	}
}
