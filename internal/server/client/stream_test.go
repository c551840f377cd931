package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/chaosnet"
	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// The call stream's failure model: a stream is a faster carrier for the same
// calls, and every way it can break ends in the retry-by-idempotency-key
// loop the HTTP carrier already had.

// sinkFunc is a trace.DecisionSink that calls a function per event, inside
// the decision.
type sinkFunc func(trace.Event)

func (f sinkFunc) Append(ev trace.Event) error { f(ev); return nil }

// streamRig is a daemon behind a chaosnet link, with a count of the HTTP
// requests that reached it (the calls that rode a stream never do).
type streamRig struct {
	srv   *server.Server
	proxy *chaosnet.Proxy
	http  atomic.Int64
}

func newStreamRig(t *testing.T, cfg server.Config) *streamRig {
	t.Helper()
	if cfg.Ingress == nil {
		cfg.Ingress = []units.Bandwidth{units.GBps, units.GBps}
		cfg.Egress = []units.Bandwidth{units.GBps, units.GBps}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := &streamRig{srv: srv}
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rig.http.Add(1)
		h.ServeHTTP(w, r)
	}))
	proxy, err := chaosnet.New("call-link", "127.0.0.1:0", ts.Listener.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rig.proxy = proxy
	t.Cleanup(func() {
		proxy.Close()
		srv.Close() // ends the streams, which the test server cannot see
		ts.Close()
	})
	return rig
}

func submitReq(from, to int) wire.SubmitRequest {
	return wire.SubmitRequest{From: from, To: to, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 1e4}
}

// mustSubmit submits and fails the test unless the submission is granted.
func mustSubmit(t *testing.T, c *Client, req wire.SubmitRequest) wire.ReservationJSON {
	t.Helper()
	res, err := c.Submit(context.Background(), req)
	if err != nil || !res.Accepted {
		t.Fatalf("submit = %+v, %v", res, err)
	}
	return res
}

// TestStreamCarriesEveryFramedCall: after the call that upgraded, submits,
// batches, lookups and cancels all ride one connection — the daemon sees a
// single HTTP request — and answer as they do over HTTP, down to the
// lookup's human rate string and the 409 of a second cancel.
func TestStreamCarriesEveryFramedCall(t *testing.T) {
	rig := newStreamRig(t, server.Config{})
	c := NewWithOptions(rig.proxy.URL(), nil, instant(nil))
	defer c.Close()
	ctx := context.Background()
	first := mustSubmit(t, c, submitReq(0, 1))
	if c.stream(rig.proxy.URL()) == nil {
		t.Fatal("no call stream after the first framed call")
	}
	for i := 0; i < 5; i++ {
		mustSubmit(t, c, submitReq(1, 0))
	}
	items, err := c.SubmitBatch(ctx, []wire.SubmitRequest{submitReq(0, 0), submitReq(1, 1)})
	if err != nil || len(items) != 2 || items[0].Reservation == nil || items[1].Reservation == nil {
		t.Fatalf("batch = %+v, %v", items, err)
	}
	got, err := c.Get(ctx, first.ID)
	if err != nil || got.ID != first.ID || !got.Accepted || got.Rate == "" || got.Rate != units.Bandwidth(got.RateBps).String() {
		t.Fatalf("get = %+v, %v", got, err)
	}
	if res, err := c.Cancel(ctx, first.ID); err != nil || res.State != string(server.StateCancelled) {
		t.Fatalf("cancel = %+v, %v", res, err)
	}
	if _, err := c.Cancel(ctx, first.ID); !IsConflict(err) {
		t.Fatalf("second cancel err = %v, want 409", err)
	}
	if _, err := c.Get(ctx, 999); !IsNotFound(err) {
		t.Fatalf("get of an unknown id err = %v, want 404", err)
	}
	if n := rig.http.Load(); n != 1 {
		t.Errorf("%d HTTP requests reached the daemon, want the one that upgraded", n)
	}
}

// TestStreamRetryNeverBooksTwice is TestSubmitRetryNeverBooksTwice on the
// stream: the connection dies after the daemon decided and before the
// answer left, the retry goes over HTTP with the same key, answers from the
// idempotency cache and upgrades again.
func TestStreamRetryNeverBooksTwice(t *testing.T) {
	var kill atomic.Bool
	var rig *streamRig
	rig = newStreamRig(t, server.Config{Decisions: sinkFunc(func(ev trace.Event) {
		if ev.Kind == trace.EventAccept && kill.CompareAndSwap(true, false) {
			rig.proxy.BreakExisting() // decided and logged, the answer never leaves
		}
	})})
	c := NewWithOptions(rig.proxy.URL(), nil, instant(nil))
	defer c.Close()
	mustSubmit(t, c, submitReq(0, 1))
	before := c.stream(rig.proxy.URL())
	if before == nil {
		t.Fatal("no call stream after the first framed call")
	}
	kill.Store(true)
	mustSubmit(t, c, submitReq(1, 0))
	st := rig.srv.Status()
	if st.Stats.Accepted != 2 || st.Stats.IdempotentHits != 1 {
		t.Errorf("accepted %d, idempotent hits %d; want 2 and 1 (the retry)", st.Stats.Accepted, st.Stats.IdempotentHits)
	}
	if after := c.stream(rig.proxy.URL()); after == nil || after == before {
		t.Errorf("stream after the retry = %p, want a new one (was %p)", after, before)
	}
	if n := rig.http.Load(); n != 2 {
		t.Errorf("%d HTTP requests, want 2: the first call and the retry", n)
	}
}

// TestStreamBlackholeFailsWithinCallTimeout: a link that swallows bytes
// fails the call at the per-attempt deadline, tears the stream down, and
// the next call — the link healed — goes over HTTP and upgrades again.
func TestStreamBlackholeFailsWithinCallTimeout(t *testing.T) {
	rig := newStreamRig(t, server.Config{})
	opts := instant(nil)
	opts.CallTimeout, opts.MaxRetries = 300*time.Millisecond, -1
	c := NewWithOptions(rig.proxy.URL(), nil, opts)
	defer c.Close()
	mustSubmit(t, c, submitReq(0, 1))
	rig.proxy.SetRules(chaosnet.Rules{CutToTarget: true, CutToClient: true})
	t0 := time.Now()
	_, err := c.Submit(context.Background(), submitReq(1, 0))
	took := time.Since(t0)
	if err == nil {
		t.Fatal("submit through a black hole succeeded")
	}
	if _, api := err.(*APIError); api || !retryable(err) || !failoverWorthy(err) {
		t.Errorf("err = %v, want a retryable transport error", err)
	}
	if took > time.Second {
		t.Errorf("submit took %v, want about the 300ms call timeout", took)
	}
	if c.stream(rig.proxy.URL()) != nil {
		t.Error("the stream outlived a call that timed out on it")
	}
	rig.proxy.SetRules(chaosnet.Rules{})
	mustSubmit(t, c, submitReq(1, 1))
	if c.stream(rig.proxy.URL()) == nil {
		t.Error("the call after the black hole did not upgrade again")
	}
	if n := rig.http.Load(); n != 2 {
		t.Errorf("%d HTTP requests reached the daemon, want 2 upgrades", n)
	}
}

// parkDurable starts a durable submission that parks on its follower ack
// (the daemon has no follower), and returns once it holds the daemon's
// only in-flight slot.
func parkDurable(t *testing.T, c *Client, srv *server.Server) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		req := submitReq(0, 0)
		req.Durable = true
		res, err := c.Submit(context.Background(), req)
		if err == nil && res.Durability != wire.DurabilityDegraded {
			t.Errorf("durable submit = %+v, want it degraded at the sync deadline", res)
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the durable submission never parked")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

func durableConfig(t *testing.T, syncTimeout time.Duration) server.Config {
	l, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return server.Config{WAL: l, SyncAcks: 1, SyncTimeout: syncTimeout, MaxInFlight: 1, RetryAfter: 2 * time.Second}
}

// TestStreamLookupPassesParkedDurableSubmit: a durable submission parked on
// its quorum ack and a lookup pipelined behind it on the same connection —
// the lookup answers first.
func TestStreamLookupPassesParkedDurableSubmit(t *testing.T) {
	rig := newStreamRig(t, durableConfig(t, 2*time.Second))
	c := NewWithOptions(rig.proxy.URL(), nil, instant(nil))
	defer c.Close()
	first := mustSubmit(t, c, submitReq(0, 1))
	durable := parkDurable(t, c, rig.srv)
	t0 := time.Now()
	if _, err := c.Get(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-durable:
		t.Fatalf("the durable submit answered (%v) before the lookup behind it", err)
	default:
	}
	if took := time.Since(t0); took > time.Second {
		t.Errorf("lookup took %v behind a parked submit", took)
	}
	if err := <-durable; err != nil {
		t.Fatal(err)
	}
	if n := rig.http.Load(); n != 1 {
		t.Errorf("%d HTTP requests, want all three calls on one stream", n)
	}
}

// TestStreamShedAnswers429WithRetryAfter: over the in-flight limit a stream
// call answers 429 with the daemon's Retry-After, and the client backs off
// by it as it does over HTTP.
func TestStreamShedAnswers429WithRetryAfter(t *testing.T) {
	rig := newStreamRig(t, durableConfig(t, 2*time.Second))
	var backoffs []time.Duration
	c := NewWithOptions(rig.proxy.URL(), nil, instant(&backoffs))
	defer c.Close()
	mustSubmit(t, c, submitReq(0, 1))
	durable := parkDurable(t, c, rig.srv)
	_, err := c.Submit(context.Background(), submitReq(1, 0))
	if !IsOverloaded(err) {
		t.Fatalf("submit over the limit err = %v, want 429", err)
	}
	if ae := err.(*APIError); ae.RetryAfter != 2*time.Second {
		t.Errorf("Retry-After = %v, want the daemon's 2s", ae.RetryAfter)
	}
	if len(backoffs) != defaultMaxRetries {
		t.Errorf("backoffs = %v, want %d retries", backoffs, defaultMaxRetries)
	}
	for _, d := range backoffs {
		if d != 2*time.Second {
			t.Errorf("backoff %v, want the hinted 2s", d)
		}
	}
	if err := <-durable; err != nil {
		t.Fatal(err)
	}
	if st := rig.srv.Status(); st.Stats.Shed != 1+uint64(defaultMaxRetries) {
		t.Errorf("shed = %d, want %d", st.Stats.Shed, 1+defaultMaxRetries)
	}
	if n := rig.http.Load(); n != 1 {
		t.Errorf("%d HTTP requests, want every call on the stream", n)
	}
}

// TestServerCloseEndsCallStreams: closing the daemon with calls in flight on
// its streams ends them; every call that does not get its answer fails
// retryably, and the client forgets the stream.
func TestServerCloseEndsCallStreams(t *testing.T) {
	rig := newStreamRig(t, server.Config{})
	opts := instant(nil)
	opts.MaxRetries = -1
	c := NewWithOptions(rig.proxy.URL(), nil, opts)
	defer c.Close()
	mustSubmit(t, c, submitReq(0, 1))
	var wg sync.WaitGroup
	var failed atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Submit(context.Background(), submitReq(g%2, g/2%2)); err != nil {
					if !retryable(err) {
						t.Errorf("in-flight call failed with %v, which is not retryable", err)
					}
					failed.Add(1)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() { rig.srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return with call streams open")
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failed.Load() == 0 {
		t.Error("no call failed across the close")
	}
	if c.stream(rig.proxy.URL()) != nil {
		t.Error("the client still holds a stream to a closed daemon")
	}
}

// scriptedPeer is a call-stream server over net.Pipe: it takes the upgrade
// offer of each connection's first call, then answers every lookup on the
// stream with the id it names — except silent, which it never answers, and
// never any other call.
type scriptedPeer struct {
	silent int
	dials  atomic.Int64
}

func (p *scriptedPeer) client(opts Options) *Client {
	dial := func(context.Context, string, string) (net.Conn, error) {
		cli, srv := net.Pipe()
		p.dials.Add(1)
		go p.serve(srv)
		return cli, nil
	}
	return NewWithOptions("http://peer", &http.Client{Transport: &http.Transport{DialContext: dial}}, opts)
}

func (p *scriptedPeer) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	req, err := http.ReadRequest(br)
	if err != nil {
		return
	}
	id, _ := strconv.Atoi(path.Base(req.URL.Path))
	answer := func(out []byte, tag uint32, id int) []byte {
		out = wire.AppendAnswerHeader(out, tag, http.StatusOK, wire.CodecFrame)
		d := server.Decision{ID: request.ID(id), Accepted: true, State: server.StateActive}
		return server.AppendBinaryBatchResponse(out, []server.BatchResult{{Decision: d}})
	}
	hello := "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + wire.CallProtocol + "\r\n\r\n"
	if _, err := conn.Write(answer([]byte(hello), 0, id)); err != nil {
		return
	}
	var frame []byte
	for {
		var tag uint32
		tag, _, frame, err = wire.ReadCall(br, frame[:0])
		if err != nil {
			return
		}
		if id, err := wire.DecodeIDFrame(frame); err == nil && id != p.silent {
			if _, err := conn.Write(answer(nil, tag, id)); err != nil {
				return
			}
		}
	}
}

// TestStreamWatchdogFailsTheOldestCall: a call the peer never answers fails
// the stream when it has waited the call timeout, give or take the
// watchdog's slack — not sooner, though the watchdog was armed before it,
// and not later, though the calls beside it on the same stream keep getting
// answers.
func TestStreamWatchdogFailsTheOldestCall(t *testing.T) {
	const timeout = 300 * time.Millisecond
	p := &scriptedPeer{silent: 666}
	opts := instant(nil)
	opts.CallTimeout, opts.MaxRetries = timeout, -1
	c := p.client(opts)
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	cs := c.stream("http://peer")
	if cs == nil {
		t.Fatal("the first call did not upgrade")
	}
	// The watchdog fires once with nothing pending, is armed again by the
	// next call, and is half through its timeout when the unanswered call
	// starts.
	for _, pause := range []time.Duration{timeout + 100*time.Millisecond, timeout / 2} {
		if _, err := c.Get(ctx, 2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(pause)
	}
	silent := make(chan error, 1)
	t0 := time.Now()
	go func() {
		_, err := c.Get(ctx, p.silent)
		silent <- err
	}()
	answered := 0
	for {
		select {
		case err := <-silent:
			took := time.Since(t0)
			if err == nil || !retryable(err) {
				t.Fatalf("the unanswered call returned %v, want a retryable transport error", err)
			}
			if took < timeout || took > timeout+200*time.Millisecond {
				t.Errorf("the unanswered call failed after %v, want the %v call timeout", took, timeout)
			}
			if answered < 10 {
				t.Errorf("%d calls answered beside the unanswered one, want them to go on", answered)
			}
			if c.stream("http://peer") == cs {
				t.Error("the client kept the stream the watchdog failed")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Since(t0) > 5*time.Second {
			t.Fatal("the unanswered call never failed")
		}
		if c.stream("http://peer") == cs {
			if _, err := c.Get(ctx, 2); err == nil {
				answered++
			}
		}
	}
}

// TestStreamWatchdogSparesAnIdleStream: a stream with nothing pending
// outlives the call timeout many times over.
func TestStreamWatchdogSparesAnIdleStream(t *testing.T) {
	const timeout = 50 * time.Millisecond
	p := &scriptedPeer{silent: -1}
	opts := instant(nil)
	opts.CallTimeout, opts.MaxRetries = timeout, -1
	c := p.client(opts)
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, i); err != nil {
			t.Fatal(err)
		}
		time.Sleep(4 * timeout)
	}
	if c.stream("http://peer") == nil {
		t.Error("an idle stream was failed")
	}
	if n := p.dials.Load(); n != 1 {
		t.Errorf("%d connections, want every call on the first", n)
	}
}

// TestStreamDeadlineEndsTheCallAndTheStream: a hold call held to a deadline
// well inside the call timeout fails at that deadline, as a call under a
// context with that deadline did: with a retryable transport error, the
// stream it waited on ended and forgotten, no retry or backoff after it —
// the deadline bounds the whole call — and the next call on a fresh stream.
func TestStreamDeadlineEndsTheCallAndTheStream(t *testing.T) {
	const deadline = 150 * time.Millisecond
	var backoffs []time.Duration
	p := &scriptedPeer{silent: -1}
	opts := instant(&backoffs)
	opts.CallTimeout = 10 * time.Second
	c := p.client(opts)
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	cs := c.stream("http://peer")
	if cs == nil {
		t.Fatal("the first call did not upgrade")
	}
	t0 := time.Now()
	_, err := c.HoldConfirm(ctx, t0.Add(deadline), []wire.HoldRefJSON{{Hold: "h"}}, nil)
	took := time.Since(t0)
	if err == nil || !retryable(err) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the unanswered hold call returned %v, want a retryable deadline error", err)
	}
	if took < deadline || took > deadline+200*time.Millisecond {
		t.Errorf("the unanswered hold call failed after %v, want its %v deadline", took, deadline)
	}
	if len(backoffs) != 0 {
		t.Errorf("backed off %v after the deadline passed, want no retry", backoffs)
	}
	if c.stream("http://peer") == cs {
		t.Error("the client kept the stream the deadline ended")
	}
	if _, err := c.Get(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if n := p.dials.Load(); n != 2 {
		t.Errorf("%d connections, want a second one after the first ended", n)
	}
}
