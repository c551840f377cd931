package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// The replication stream: a pull that offers to upgrade gets one connection
// that carries every later batch down and the follower's cursor back. These
// tests pin its failure model — each case the long poll handled by asking
// again, the stream handles on the open connection — and the JSON answer
// every pull that cannot stream still gets.

// countPulls fronts h with a counter of pull requests. It hands the
// ResponseWriter through untouched, so the stream can still take it over.
func countPulls(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/pull" {
			n.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// plainWriter hides every optional interface of the writer it wraps — no
// Hijack, no Unwrap — as a tracing or metrics middleware often does.
type plainWriter struct{ http.ResponseWriter }

func durableOn(t *testing.T, primary *server.Server, i int) server.BatchResult {
	t.Helper()
	res, err := primary.SubmitBatch([]server.Submission{submission(i, true)})
	if err != nil || res[0].Err != nil || !res[0].Decision.Accepted {
		t.Fatalf("durable submit %d: %v %+v", i, err, res)
	}
	return res[0]
}

func syncPrimary(t *testing.T, w *wal.Log) server.Config {
	cfg := uniformConfig(nil)
	cfg.WAL = w
	cfg.SyncMode = "one"
	cfg.SyncTimeout = 2 * time.Second
	return cfg
}

func startFollower(t *testing.T, source, id string) *server.Server {
	t.Helper()
	cfg := uniformConfig(nil)
	cfg.WAL = openTestWAL(t)
	cfg.Follow = source
	cfg.ReplID = id
	f := newTestServer(t, cfg)
	if err := f.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStreamShipsWithoutRoundTrips: against a handler that can be taken
// over, a follower makes one pull, and every later durable submit is
// replicated through that one connection.
func TestStreamShipsWithoutRoundTrips(t *testing.T) {
	pcfg := syncPrimary(t, openTestWAL(t))
	primary := newTestServer(t, pcfg)
	var pulls atomic.Int64
	ts := httptest.NewServer(countPulls(primary.Handler(), &pulls))
	defer ts.Close()
	startFollower(t, ts.URL, "f1")

	for i := 0; i < 20; i++ {
		if res := durableOn(t, primary, i); res.Durability != wire.DurabilityReplicated {
			t.Fatalf("submit %d answered %q", i, res.Durability)
		}
	}
	waitFor(t, "the last ack", func() bool { return primary.FollowerAcks()["f1"].Pos == pcfg.WAL.End() })
	if n := pulls.Load(); n != 1 {
		t.Fatalf("%d pull requests for 20 replicated submits, want the 1 that opened the stream", n)
	}
	if got := primary.Status().Stats.SyncDegraded; got != 0 {
		t.Fatalf("sync_degraded = %d, want 0", got)
	}
}

// TestWrappedHandlerFallsBackToJSON: a primary whose handler sits behind a
// writer that cannot be taken over answers an upgrading pull with the JSON
// batch, byte for byte what a pull without Upgrade gets — and a follower of
// this version replicates through it, its acks satisfying a SyncAcks: 1
// wait.
func TestWrappedHandlerFallsBackToJSON(t *testing.T) {
	clk := &fakeClock{}
	pcfg := uniformConfig(clk)
	pcfg.WAL = openTestWAL(t)
	pcfg.SyncAcks, pcfg.SyncTimeout = 1, 2*time.Second // durable submits wait for one ack
	primary := newTestServer(t, pcfg)
	var pulls atomic.Int64
	h := countPulls(primary.Handler(), &pulls)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(plainWriter{w}, r)
	}))
	t.Cleanup(ts.Close) // after the follower's Close ends its long poll

	// The two-submission history goldenBody was captured from.
	if d, err := primary.Submit(server.Submission{From: 0, To: 1, Volume: 100 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps}); err != nil || !d.Accepted {
		t.Fatalf("submit: %v %+v", err, d)
	}
	if d, err := primary.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.TB, Deadline: 10, MaxRate: 1 * units.GBps}); err != nil || d.Accepted {
		t.Fatalf("submit: %v %+v", err, d)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/replication/pull?seg=0&off=0&max=512", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "gridbw-repl/1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != goldenBody {
		t.Fatalf("upgrading pull through a plain writer: HTTP %d, %v:\n got %s\nwant %s", resp.StatusCode, err, body, goldenBody)
	}

	pulls.Store(0)
	startFollower(t, ts.URL, "f1")
	for i := 0; i < 5; i++ {
		if res := durableOn(t, primary, i); res.Durability != wire.DurabilityReplicated {
			t.Fatalf("submit %d answered %q", i, res.Durability)
		}
	}
	if got := primary.Status().Stats.SyncDegraded; got != 0 {
		t.Fatalf("sync_degraded = %d, want 0", got)
	}
	if n := pulls.Load(); n < 5 {
		t.Fatalf("%d pulls for 5 replicated submits: the follower did not long-poll", n)
	}
}

// rawStream opens a replication stream by hand, as a follower would, and
// reads the 101 answer.
type rawStream struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func openRawStream(t *testing.T, base, query string) *rawStream {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "GET /v1/replication/pull?%s HTTP/1.1\r\nHost: primary\r\nConnection: Upgrade\r\nUpgrade: gridbw-repl/1\r\n\r\n", query)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != "gridbw-repl/1" {
		t.Fatalf("pull answered HTTP %d, Upgrade %q; want 101 to gridbw-repl/1", resp.StatusCode, resp.Header.Get("Upgrade"))
	}
	return &rawStream{t: t, conn: conn, br: br}
}

// next reads one frame; gone reports the gone frame.
func (r *rawStream) next() (b wire.ShippedBatch, gone bool, err error) {
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if r.buf, err = wire.ReadFrame(r.br, r.buf); err != nil {
		return b, false, err
	}
	return wire.DecodeReplFrame(r.buf)
}

func (r *rawStream) ack(p wal.Pos) {
	r.t.Helper()
	if _, err := r.conn.Write(wire.AppendPos(nil, p)); err != nil {
		r.t.Fatal(err)
	}
}

// TestStreamAckPastFrontierIsNotRecorded is the stream's twin of the rogue
// pull in TestSyncAckDurabilityOnTheWire: a cursor frame past anything the
// WAL wrote is no ack, and a durable submit that only it could satisfy
// degrades; a cursor frame inside the WAL is recorded.
func TestStreamAckPastFrontierIsNotRecorded(t *testing.T) {
	pcfg := syncPrimary(t, openTestWAL(t))
	pcfg.SyncTimeout = 300 * time.Millisecond
	primary := newTestServer(t, pcfg)
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	rs := openRawStream(t, ts.URL, "seg=0&off=0&id=rogue")
	if b, gone, err := rs.next(); err != nil || gone || len(b.Events) != 0 || b.Next != (wal.Pos{Seg: 1}) {
		t.Fatalf("first frame on an empty WAL: %+v gone=%v %v", b, gone, err)
	}
	rs.ack(wal.Pos{Seg: 99, Off: 1 << 20})
	rs.ack(wal.Pos{Seg: 1})
	waitFor(t, "the in-range ack", func() bool { _, ok := primary.FollowerAcks()["rogue"]; return ok })
	if got := primary.FollowerAcks()["rogue"].Pos; got != (wal.Pos{Seg: 1}) {
		t.Fatalf("ack table holds %v for the rogue stream, want 1:0", got)
	}
	if res := durableOn(t, primary, 0); res.Durability != wire.DurabilityDegraded {
		t.Fatalf("durable submit with only a rogue stream answered %q, want %q", res.Durability, wire.DurabilityDegraded)
	}
	// The stream shipped the decision all the same.
	if b, _, err := rs.next(); err != nil || len(b.Events) != 1 || b.Next != pcfg.WAL.End() {
		t.Fatalf("frame after the submit: %+v %v", b, err)
	}
}

// TestStreamEndsOnClose is the stream's twin of TestReplPullUnblocksOnClose:
// the HTTP server forgets a connection it handed over, so the primary's
// Close must end every stream itself, promptly.
func TestStreamEndsOnClose(t *testing.T) {
	cfg := uniformConfig(nil)
	cfg.WAL = openTestWAL(t)
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rs := openRawStream(t, ts.URL, "seg=0&off=0&id=f1")
	if _, _, err := rs.next(); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	start := time.Now()
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited on an open stream")
	}
	if _, _, err := rs.next(); err == nil {
		t.Fatal("stream still delivering after Close")
	} else if waited := time.Since(start); waited > time.Second {
		t.Fatalf("stream ended %v after Close (%v), want at once", waited, err)
	}
}

// heldListener hands out connections whose writes can be held, the way a
// full TCP window holds them: a held Write waits until release, its write
// deadline, or Close. blocked receives one signal per held Write; closed one
// per connection closed while a write was held.
type heldListener struct {
	net.Listener
	mu      sync.Mutex
	release chan struct{} // nil: writes pass
	blocked chan struct{}
	closed  chan struct{}
}

func newHeldListener(l net.Listener) *heldListener {
	return &heldListener{Listener: l, blocked: make(chan struct{}, 16), closed: make(chan struct{}, 16)}
}

func (l *heldListener) hold() {
	l.mu.Lock()
	l.release = make(chan struct{})
	l.mu.Unlock()
}

func (l *heldListener) unhold() {
	l.mu.Lock()
	close(l.release)
	l.release = nil
	l.mu.Unlock()
}

func (l *heldListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &heldConn{Conn: c, l: l, gone: make(chan struct{})}, nil
}

type heldConn struct {
	net.Conn
	l        *heldListener
	mu       sync.Mutex
	deadline time.Time
	held     bool
	gone     chan struct{}
	once     sync.Once
}

func (c *heldConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *heldConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *heldConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	release := c.l.release
	c.l.mu.Unlock()
	if release != nil {
		c.mu.Lock()
		c.held = true
		var timeout <-chan time.Time
		if !c.deadline.IsZero() {
			timeout = time.After(time.Until(c.deadline))
		}
		c.mu.Unlock()
		c.l.blocked <- struct{}{}
		select {
		case <-release:
		case <-timeout:
			return 0, os.ErrDeadlineExceeded
		case <-c.gone:
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(p)
}

func (c *heldConn) Close() error {
	c.once.Do(func() {
		close(c.gone)
		c.mu.Lock()
		held := c.held
		c.mu.Unlock()
		if held {
			c.l.closed <- struct{}{}
		}
	})
	return c.Conn.Close()
}

func heldServer(t *testing.T, h http.Handler) (*httptest.Server, *heldListener) {
	ts := httptest.NewUnstartedServer(h)
	hl := newHeldListener(ts.Listener)
	ts.Listener = hl
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, hl
}

func waitSignal(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestStreamSenderFreedByWriteDeadline: a follower that stops reading
// leaves the sender's write blocked; the write deadline frees it, and the
// stream ends without waiting for anything else.
func TestStreamSenderFreedByWriteDeadline(t *testing.T) {
	server.SetStreamClocks(t, 50*time.Millisecond, 300*time.Millisecond)
	cfg := uniformConfig(nil)
	cfg.WAL = openTestWAL(t)
	s := newTestServer(t, cfg)
	ts, hl := heldServer(t, s.Handler())

	rs := openRawStream(t, ts.URL, "seg=0&off=0&id=f1")
	if _, _, err := rs.next(); err != nil {
		t.Fatal(err)
	}
	hl.hold() // the next heartbeat finds the window full
	waitSignal(t, hl.blocked, "the sender's write to block")
	start := time.Now()
	waitSignal(t, hl.closed, "the sender to give the connection up")
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("sender held %v, want about the 300ms deadline", waited)
	}
}

// TestStreamGoneFrameReseeds: the segment the stream stands in is compacted
// away while its first batch is in flight, so the stream says "gone" — it
// cannot answer 410 any more — and sends a checkpoint after it, which
// re-seeds the follower, and then streams on from there on the same
// connection.
func TestStreamGoneFrameReseeds(t *testing.T) {
	pcfg := uniformConfig(nil)
	pwal := openSmallWAL(t)
	pcfg.WAL = pwal
	primary := newTestServer(t, pcfg)
	var pulls atomic.Int64
	ts, hl := heldServer(t, countPulls(primary.Handler(), &pulls))
	submit := func(i int) {
		t.Helper()
		if d, err := primary.Submit(submission(i, false)); err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
	}
	for i := 0; i < 8; i++ {
		submit(i)
	}
	shipped := pwal.End()
	hl.hold() // holds the 101 and the first batch, which runs up to shipped
	follower := startFollower(t, ts.URL, "f1")
	waitSignal(t, hl.blocked, "the stream's first write")
	submit(8)
	submit(9) // the WAL rotates past shipped's segment ...
	if _, err := pwal.CompactBefore(pwal.End()); err != nil || pwal.FirstPos().Seg <= shipped.Seg {
		t.Fatalf("compaction left %v, want past %v: %v", pwal.FirstPos(), shipped, err)
	}
	hl.unhold() // ... and drops it before the stream reads on from there

	waitFor(t, "the re-seed", func() bool {
		st := follower.Status()
		return st.Stats.Reseeds == 1 && st.Active == primary.Status().Active
	})
	submit(10)
	waitFor(t, "streaming past the re-seed", func() bool {
		_, err := follower.Lookup(10)
		return err == nil && follower.ReplicationStatus().Cursor == pwal.End()
	})
	if rs := follower.ReplicationStatus(); rs.LastError != "" {
		t.Fatalf("follower holds error %q", rs.LastError)
	}
	if n := pulls.Load(); n != 1 {
		t.Fatalf("%d pulls, want 1: the re-seed rides the stream that went", n)
	}
}

// TestFollowerAbandonsSilentPrimary: a primary that took the connection
// and then sends nothing — not even a heartbeat — is abandoned by the
// follower's idle watchdog, which pulls again.
func TestFollowerAbandonsSilentPrimary(t *testing.T) {
	server.SetStreamClocks(t, 50*time.Millisecond, 300*time.Millisecond)
	var pulls atomic.Int64
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pulls.Add(1)
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: gridbw-repl/1\r\n\r\n")
		io.Copy(io.Discard, brw) // until the follower hangs up
	}))
	defer silent.Close()

	follower := startFollower(t, silent.URL, "f1")
	waitFor(t, "a second pull", func() bool { return pulls.Load() >= 2 })
	if msg := follower.ReplicationStatus().LastError; !strings.Contains(msg, "nothing from") {
		t.Fatalf("follower's last error %q, want the idle watchdog's", msg)
	}
}

// FuzzReplFrames plays arbitrary bytes down a follower's replication
// stream: they never panic it, a gone frame's checkpoint installs only
// whole and on the follower's platform, and what installs passes the
// audit. (internal/wire's FuzzReplFrames fuzzes the stream's decoders.)
func FuzzReplFrames(f *testing.F) {
	f.Add(wire.AppendReplBatch(nil, &wire.ShippedBatch{
		Epoch: 2, From: wal.Pos{Seg: 1}, Next: wal.Pos{Seg: 1, Off: 9}, End: wal.Pos{Seg: 1, Off: 9},
		Events: [][]byte{[]byte(`{"kind":"reject"}`)},
	}))
	f.Add(wire.AppendReplBatch(nil, &wire.ShippedBatch{
		Epoch: 2, From: wal.Pos{Seg: 1}, Next: wal.Pos{Seg: 1, Off: 150}, End: wal.Pos{Seg: 1, Off: 150},
		Events: frames(f,
			trace.Event{Kind: trace.EventAccept, Ingress: 0, Egress: 1, RateBps: 1e8, TauS: 100, VolumeB: 1e10, MaxRateBps: 1e9, Key: "k"},
			trace.Event{At: 1, Kind: trace.EventCancel}),
	}))
	f.Add(wire.AppendReplBatch(nil, &wire.ShippedBatch{Epoch: 1, From: wal.Pos{Seg: 1}, Next: wal.Pos{Seg: 1}}))
	f.Add(wire.AppendReplGone(nil))
	f.Add(wire.AppendPos(nil, wal.Pos{Seg: 3, Off: 4096}))
	// A re-seed: the gone frame, a donor's checkpoint, and the batch after.
	donor := newTestServer(f, uniformConfig(nil))
	if d, err := donor.Submit(submission(0, false)); err != nil || !d.Accepted {
		f.Fatalf("donor submit: %v %+v", err, d)
	}
	snap := donor.Snapshot()
	snap.WALSeg = 1
	reseed, err := server.AppendReplReseed(nil, snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reseed)
	f.Add(wire.AppendReplBatch(reseed, &wire.ShippedBatch{Epoch: snap.Epoch, From: snap.WALPos(), Next: snap.WALPos()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := uniformConfig(nil)
		cfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
		follower := newTestServer(t, cfg)
		if err := follower.FollowStream(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard}); err == nil {
			t.Fatal("a stream that ended reported no error")
		}
		if err := follower.VerifyInvariant(); err != nil {
			t.Fatalf("the follower's state after the stream fails the audit: %v", err)
		}
		follower.Close()
	})
}

// TestCompactedCursorWithoutStreamKeepsRetrying: only the stream carries a
// re-seed. A pull that cannot be taken over — through a writer that hides
// the connection, as a primary of an older version answers too — still
// gets 410 at a compacted cursor, and the follower keeps the error on its
// status and pulls again, installing nothing.
func TestCompactedCursorWithoutStreamKeepsRetrying(t *testing.T) {
	pcfg := uniformConfig(nil)
	pwal := openSmallWAL(t)
	pcfg.WAL = pwal
	primary := newTestServer(t, pcfg)
	for i := 0; i < 8; i++ {
		if d, err := primary.Submit(submission(i, false)); err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
	}
	if dropped, err := pwal.CompactBefore(pwal.End()); err != nil || dropped == 0 {
		t.Fatalf("compaction dropped %d segments (%v), want > 0", dropped, err)
	}
	var pulls atomic.Int64
	h := countPulls(primary.Handler(), &pulls)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(plainWriter{w}, r)
	}))
	t.Cleanup(ts.Close)

	follower := startFollower(t, ts.URL, "f1")
	waitFor(t, "a retried pull", func() bool { return pulls.Load() >= 3 })
	rs := follower.ReplicationStatus()
	if !strings.Contains(rs.LastError, "compacted away") {
		t.Fatalf("follower's last error %q, want the compacted cursor", rs.LastError)
	}
	if st := follower.Status(); st.Stats.Reseeds != 0 || st.Active != 0 {
		t.Fatalf("follower re-seeded %d times with %d active, want nothing installed", st.Stats.Reseeds, st.Active)
	}
}
