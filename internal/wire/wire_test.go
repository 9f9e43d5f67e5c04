package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcdp/internal/chaos"
)

// fakeBackend is an in-memory lock table: single-holder sessions keyed
// by a generated ID, enough to exercise the transport without the real
// lockservice.
type fakeBackend struct {
	ringGen    atomic.Uint64
	defaultTTL time.Duration

	mu       sync.Mutex
	next     int                  // guarded by mu
	sessions map[string]time.Time // session -> lease expiry; guarded by mu
	held     map[string]bool      // resource -> held; guarded by mu
	byRes    map[string]string    // resource -> holder session; guarded by mu
}

func newFakeBackend() *fakeBackend {
	b := &fakeBackend{
		defaultTTL: 30 * time.Second,
		sessions:   make(map[string]time.Time),
		held:       make(map[string]bool),
		byRes:      make(map[string]string),
	}
	b.ringGen.Store(1)
	return b
}

// expireLocked drops leases past their deadline — the fake's stand-in
// for the lockservice's TTL fencing, which is what lets an orphaned
// grant (response lost in transit) self-heal.
func (b *fakeBackend) expireLocked(now time.Time) {
	for sid, deadline := range b.sessions {
		if now.Before(deadline) {
			continue
		}
		delete(b.sessions, sid)
		for r, holder := range b.byRes {
			if holder == sid {
				delete(b.held, r)
				delete(b.byRes, r)
			}
		}
	}
}

func (b *fakeBackend) Acquire(ctx context.Context, req AcquireReq) (GrantInfo, error) {
	if req.RingGen != 0 && req.RingGen != b.ringGen.Load() {
		return GrantInfo{}, &Error{Code: 409, Text: "stale ring generation", RingGen: b.ringGen.Load()}
	}
	deadline := time.Now().Add(2 * time.Second)
	if req.Timeout > 0 {
		deadline = time.Now().Add(req.Timeout)
	}
	ttl := b.defaultTTL
	if req.TTL > 0 {
		ttl = req.TTL
	}
	for {
		b.mu.Lock()
		b.expireLocked(time.Now())
		free := true
		for _, r := range req.Resources {
			if b.held[r] {
				free = false
				break
			}
		}
		if free {
			b.next++
			sid := fmt.Sprintf("k0:s%08x-0", b.next)
			b.sessions[sid] = time.Now().Add(ttl)
			for _, r := range req.Resources {
				b.held[r] = true
				b.byRes[r] = sid
			}
			b.mu.Unlock()
			return GrantInfo{Session: sid + "|" + strings.Join(req.Resources, ","), Node: 0}, nil
		}
		b.mu.Unlock()
		if time.Now().After(deadline) {
			return GrantInfo{}, &Error{Code: 408, Text: "acquire timed out"}
		}
		select {
		case <-ctx.Done():
			return GrantInfo{}, &Error{Code: 500, Text: "canceled"}
		case <-time.After(time.Millisecond):
		}
	}
}

func (b *fakeBackend) Release(ctx context.Context, session string) error {
	sid, resPart, ok := strings.Cut(session, "|")
	if !ok {
		return &Error{Code: 422, Text: "malformed session"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expireLocked(time.Now())
	if _, live := b.sessions[sid]; !live {
		return &Error{Code: 404, Text: "unknown session"}
	}
	delete(b.sessions, sid)
	for _, r := range strings.Split(resPart, ",") {
		if b.byRes[r] == sid {
			delete(b.held, r)
			delete(b.byRes, r)
		}
	}
	return nil
}

func (b *fakeBackend) Renew(ctx context.Context, session string, ttl time.Duration) (time.Duration, error) {
	sid, _, _ := strings.Cut(session, "|")
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expireLocked(time.Now())
	if _, live := b.sessions[sid]; !live {
		return 0, &Error{Code: 404, Text: "unknown session"}
	}
	if ttl <= 0 {
		ttl = b.defaultTTL
	}
	b.sessions[sid] = time.Now().Add(ttl)
	return ttl, nil
}

func (b *fakeBackend) RingGen() uint64 { return b.ringGen.Load() }

// WaitBudget mirrors the fake's hardcoded 2s default acquire deadline.
func (b *fakeBackend) WaitBudget() time.Duration { return 2 * time.Second }

// startServer spins up a wire server over a loopback listener.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(cfg)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

func TestClientServerBasicOps(t *testing.T) {
	be := newFakeBackend()
	srv, addr := startServer(t, ServerConfig{Backend: be})
	cl := NewClient(addr)
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if got := cl.RingGen(); got != 1 {
		t.Fatalf("hello ring generation: got %d want 1", got)
	}

	g, err := cl.Acquire(ctx, []string{"a", "b"}, time.Second, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if g.SessionID == "" {
		t.Fatal("empty session")
	}
	if remaining, err := cl.Renew(ctx, g.SessionID, 10*time.Second); err != nil || remaining != 10*time.Second {
		t.Fatalf("renew: %v (remaining %v)", err, remaining)
	}
	if err := cl.Release(ctx, g.SessionID); err != nil {
		t.Fatalf("release: %v", err)
	}

	// Logical rejections surface as *Error without retry churn.
	var wireErr *Error
	if err := cl.Release(ctx, g.SessionID); !errors.As(err, &wireErr) || wireErr.Code != 404 {
		t.Fatalf("double release: got %v want code 404", err)
	}
	if _, err := cl.Renew(ctx, g.SessionID, 0); !errors.As(err, &wireErr) || wireErr.Code != 404 {
		t.Fatalf("renew after release: got %v want code 404", err)
	}

	if srv.Stats().Connections.Load() == 0 {
		t.Fatal("server recorded no connections")
	}
}

func TestClientAdoptsRingGenFrom409(t *testing.T) {
	be := newFakeBackend()
	_, addr := startServer(t, ServerConfig{Backend: be})
	cl := NewClient(addr)
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Bump the generation after the hello: the client's first acquire
	// asserts the stale value, gets a 409 carrying the live one, adopts
	// it, and the retry succeeds.
	be.ringGen.Store(5)
	g, err := cl.Acquire(ctx, []string{"x"}, time.Second, 0)
	if err != nil {
		t.Fatalf("acquire across generation bump: %v", err)
	}
	if got := cl.RingGen(); got != 5 {
		t.Fatalf("client ring generation: got %d want 5", got)
	}
	if err := cl.Release(ctx, g.SessionID); err != nil {
		t.Fatalf("release: %v", err)
	}
}

func TestClientServerPipelinedMutualExclusion(t *testing.T) {
	be := newFakeBackend()
	_, addr := startServer(t, ServerConfig{Backend: be})
	cl := NewClient(addr)
	cl.Conns = 2
	defer cl.Close()

	// Many goroutines hammer overlapping pairs through the shared
	// client; the fake backend enforces exclusion, so every op must
	// come back clean and batching must actually coalesce.
	const workers = 16
	const opsEach = 25
	resources := []string{"r0", "r1", "r2", "r3"}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < opsEach; i++ {
				pair := []string{resources[w%len(resources)], resources[(w+1)%len(resources)]}
				if pair[0] > pair[1] {
					pair[0], pair[1] = pair[1], pair[0]
				}
				g, err := cl.Acquire(ctx, pair, 5*time.Second, 0)
				if err != nil {
					errs <- fmt.Errorf("worker %d acquire: %w", w, err)
					return
				}
				if err := cl.Release(ctx, g.SessionID); err != nil {
					errs <- fmt.Errorf("worker %d release: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := cl.Stats()
	if got := st.Ops.Load(); got < workers*opsEach*2 {
		t.Fatalf("ops counted %d, want >= %d", got, workers*opsEach*2)
	}
	if opened := st.ConnsOpened.Load(); opened > 4 {
		t.Fatalf("opened %d connections; pool should cap reuse at 2 (+hello races)", opened)
	}
}

func TestClientSurvivesSeededFaults(t *testing.T) {
	be := newFakeBackend()
	inj := chaos.NewInjector(42, chaos.Faults{
		Drop:          0.05,
		Duplicate:     0.05,
		Corrupt:       0.05,
		Delay:         0.10,
		MaxDelayTicks: 2,
	})
	srv, addr := startServer(t, ServerConfig{
		Backend:   be,
		Faults:    inj,
		FaultTick: 200 * time.Microsecond,
	})
	cl := NewClient(addr)
	cl.MaxAttempts = 8
	cl.Backoff = 5 * time.Millisecond
	cl.MaxBackoff = 50 * time.Millisecond
	// A dropped response frame should be declared lost quickly so the
	// test's retries stay fast.
	cl.OpTimeout = 500 * time.Millisecond
	defer cl.Close()
	ctx := context.Background()

	const ops = 60
	for i := 0; i < ops; i++ {
		// Short TTL: a grant whose response was lost orphans its lease,
		// and only expiry can free the resource for the retry.
		g, err := cl.Acquire(ctx, []string{fmt.Sprintf("r%d", i%4)}, 500*time.Millisecond, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("acquire %d under faults: %v", i, err)
		}
		if err := cl.Release(ctx, g.SessionID); err != nil {
			t.Fatalf("release %d under faults: %v", i, err)
		}
	}

	st := srv.Stats()
	injected := st.FaultsDropped.Load() + st.FaultsDuplicate.Load() + st.FaultsCorrupted.Load() + st.FaultsStalled.Load()
	if injected == 0 {
		t.Fatal("chaos injector fired zero faults; test proves nothing")
	}
	t.Logf("survived faults: dropped=%d dup=%d corrupt=%d stalled=%d retries=%d reconnects=%d",
		st.FaultsDropped.Load(), st.FaultsDuplicate.Load(), st.FaultsCorrupted.Load(),
		st.FaultsStalled.Load(), cl.Stats().Retries.Load(), cl.Stats().ConnsOpened.Load())
}

// TestServeConnUnwedgesWhenWriterDies reproduces the writer-death
// deadlock: the peer stops reading so the server's writer wedges on
// the (synchronous) pipe, completed ops fill the 256-entry response
// buffer until the reader blocks in send(), then the peer closes and
// the writer dies on a write error. The dead writer must cancel the
// connection context so every blocked send unwedges and Close returns,
// rather than leaking the connection goroutines forever.
func TestServeConnUnwedgesWhenWriterDies(t *testing.T) {
	be := newFakeBackend()
	srv := NewServer(ServerConfig{Backend: be})
	peer, conn := net.Pipe()
	defer peer.Close()
	srv.mu.Lock()
	srv.conns[conn] = struct{}{}
	srv.mu.Unlock()
	srv.stats.OpenConnections.Add(1)
	srv.wg.Add(1)
	done := make(chan struct{})
	go func() {
		srv.serveConn(conn)
		close(done)
	}()

	hello := AppendFrame(nil, TypeHello, []Msg{{Corr: 1, Proto: ProtoVersion}})
	if _, err := peer.Write(hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, _, err := ReadFrame(bufio.NewReader(peer)); err != nil {
		t.Fatalf("hello response: %v", err)
	}

	// 600 pings in one frame, then never read again: the writer blocks
	// writing the first pong batch, the buffer fills behind it, and the
	// reader blocks in send() mid-dispatch.
	entries := make([]Msg, 600)
	for i := range entries {
		entries[i] = Msg{Type: TypePing, Corr: uint64(i + 2)}
	}
	if _, err := peer.Write(AppendFrame(nil, TypePing, entries)); err != nil {
		t.Fatalf("ping burst: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // let the pipeline wedge
	peer.Close()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn never returned after its writer died")
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on the wedged connection")
	}
}

// TestClientRejectsOversizedAcquire: protocol-bound violations are the
// caller's bug and must come back as an immediate error — not a panic
// in the shared writer goroutine, not a retried transport fault.
func TestClientRejectsOversizedAcquire(t *testing.T) {
	cl := NewClient("127.0.0.1:1") // never dialed: bounds fail first
	defer cl.Close()
	_, err := cl.Acquire(context.Background(), []string{strings.Repeat("x", MaxResNameLen+1)}, 0, 0)
	if err == nil {
		t.Fatal("oversized resource name accepted")
	}
	if errors.Is(err, ErrTransport) {
		t.Fatalf("caller bug misclassified as transport fault: %v", err)
	}
	if got := cl.Stats().Retries.Load(); got != 0 {
		t.Fatalf("caller bug burned %d retries", got)
	}
}

// TestHelloAdvertisesWaitBudget: the server hello must carry the
// backend's default acquire budget, and the client must adopt it as
// the base of its lost-response guard.
func TestHelloAdvertisesWaitBudget(t *testing.T) {
	be := newFakeBackend()
	_, addr := startServer(t, ServerConfig{Backend: be})
	cl := NewClient(addr)
	defer cl.Close()
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	found := false
	for _, slot := range cl.pool {
		slot.mu.Lock()
		if slot.cc != nil {
			found = true
			if slot.cc.budget != be.WaitBudget() {
				t.Errorf("connection budget %v, want %v", slot.cc.budget, be.WaitBudget())
			}
		}
		slot.mu.Unlock()
	}
	if !found {
		t.Fatal("no pooled connection after ping")
	}
}

func TestServerRejectsBadHello(t *testing.T) {
	be := newFakeBackend()
	srv, addr := startServer(t, ServerConfig{Backend: be})

	// Garbage instead of a hello: the server must hang up without
	// serving anything.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 64)
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("server answered %d bytes to a non-hello", n)
	}

	// Wrong protocol version in an otherwise valid hello.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c2.Close()
	bad := AppendFrame(nil, TypeHello, []Msg{{Corr: 1, Proto: ProtoVersion + 1}})
	if _, err := c2.Write(bad); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c2.Read(buf); err == nil {
		t.Fatalf("server answered %d bytes to a version-mismatched hello", n)
	}

	waitUntil(t, 2*time.Second, func() bool { return srv.Stats().OpenConnections.Load() == 0 })
}

func TestClientReconnectsAfterServerSideDrop(t *testing.T) {
	be := newFakeBackend()
	srv, addr := startServer(t, ServerConfig{Backend: be})
	cl := NewClient(addr)
	cl.Conns = 1
	cl.Backoff = time.Millisecond
	defer cl.Close()
	ctx := context.Background()

	g, err := cl.Acquire(ctx, []string{"a"}, time.Second, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := cl.Release(ctx, g.SessionID); err != nil {
		t.Fatalf("release: %v", err)
	}

	// Kill every live connection server-side; the next op must redial
	// transparently.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()

	waitUntil(t, 2*time.Second, func() bool { return cl.Ping(ctx) == nil })
	if opened := cl.Stats().ConnsOpened.Load(); opened < 2 {
		t.Fatalf("expected a reconnect, connections opened: %d", opened)
	}
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met before deadline")
}
