package callplane

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/server/client"
	"gridbw/internal/wire"
)

// TestUpgradeOfferTokens: the offer is the Upgrade token, case aside, plus
// an "upgrade" token anywhere in any Connection header.
func TestUpgradeOfferTokens(t *testing.T) {
	for _, tc := range []struct {
		connection []string
		upgrade    string
		want       bool
	}{
		{[]string{"Upgrade"}, wire.CallProtocol, true},
		{[]string{"keep-alive, upgrade"}, "GRIDBW-CALL/1", true},
		{[]string{"keep-alive", " Upgrade "}, wire.CallProtocol, true},
		{[]string{"keep-alive"}, wire.CallProtocol, false},
		{[]string{"Upgrade"}, "gridbw-repl/1", false},
		{[]string{"upgraded"}, wire.CallProtocol, false},
		{nil, wire.CallProtocol, false},
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/requests/1", nil)
		for _, v := range tc.connection {
			r.Header.Add("Connection", v)
		}
		r.Header.Set("Upgrade", tc.upgrade)
		if got := WantsUpgrade(r, wire.CallProtocol); got != tc.want {
			t.Errorf("Connection %q, Upgrade %q: offer = %v, want %v", tc.connection, tc.upgrade, got, tc.want)
		}
	}
}

// TestStreamWorkersAreReused: a call stream serves its calls on a small set
// of workers that outlive each call. Sequential calls run on a bounded set
// of goroutines however many there are, a panicking call leaves its worker
// serving, a burst of parked calls leaves no more than the cap idle once it
// drains, and Streams.Close waits for every worker, parked ones included.
func TestStreamWorkersAreReused(t *testing.T) {
	const (
		panicID = 1 << 20 // the handler panics on this id
		parkID  = 1 << 21 // it parks until release is closed or the stream ends
	)
	var (
		ss       Streams
		mu       sync.Mutex
		served   = map[string]bool{} // the goroutines that answered a call
		parked   atomic.Int64
		returned atomic.Int64
		release  = make(chan struct{})
	)
	h := func(ctx context.Context, c *Call) Reply {
		id, err := wire.DecodeIDFrame(c.Buf.B)
		if err != nil {
			return ErrorReply(http.StatusBadRequest, err)
		}
		switch id {
		case panicID:
			panic("the handler of this call panics")
		case parkID:
			parked.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
			}
			returned.Add(1)
		default:
			mu.Lock()
			served[goroutineID()] = true
			mu.Unlock()
		}
		c.Buf.B = appendGrant(c.Buf.B[:0], id)
		return Reply{Status: http.StatusOK}
	}
	mux := http.NewServeMux()
	mux.Handle(wire.OpGet.Pattern(), CallRoute(&ss, h, wire.OpGet, JSONFace{}))
	var reached atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := client.NewWithOptions(ts.URL, nil, client.Options{MaxRetries: -1})
	defer c.Close()
	ctx := context.Background()
	get := func(id int) error {
		res, err := c.Get(ctx, id)
		if err == nil && res.ID != id {
			err = fmt.Errorf("get %d answered %d", id, res.ID)
		}
		return err
	}

	// Sequential calls, one of them panicking.
	const n = 300
	for i := 0; i < n; i++ {
		id := i
		if i == n/2 {
			id = panicID
		}
		err := get(id)
		if ae, ok := err.(*client.APIError); id == panicID && (!ok || ae.StatusCode != http.StatusInternalServerError) {
			t.Fatalf("the panicking call answered %v, want 500", err)
		} else if id != panicID && err != nil {
			t.Fatal(err)
		}
	}
	if n := reached.Load(); n != 1 {
		t.Fatalf("%d HTTP requests, want every call on one stream", n)
	}
	mu.Lock()
	workers := len(served)
	mu.Unlock()
	if workers > callIdleWorkers+2 {
		t.Errorf("%d sequential calls ran on %d goroutines, want at most %d", n, workers, callIdleWorkers+2)
	}

	// A burst of parked calls, then the drain.
	const k = 4 * callIdleWorkers
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := get(parkID); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, "the burst to park", func() bool { return parked.Load() == k })
	if all, _ := streamWorkers(); all != k+1 {
		t.Errorf("%d workers with %d calls parked, want one more to read", all, k)
	}
	close(release)
	wg.Wait()
	waitFor(t, "the idle set to shrink to its cap", func() bool {
		all, idle := streamWorkers()
		return idle == callIdleWorkers && all == idle+1
	})

	// Streams.Close with calls parked on the stream's context.
	parked.Store(0)
	returned.Store(0)
	release = make(chan struct{}) // never closed: only the stream's end frees them
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := get(parkID); err == nil {
				t.Error("a call parked through Streams.Close got an answer")
			}
		}()
	}
	waitFor(t, "the calls to park", func() bool { return parked.Load() == 3 })
	ss.Close()
	if r := returned.Load(); r != 3 {
		t.Errorf("Streams.Close returned with %d of 3 parked calls still running", 3-r)
	}
	if all, _ := streamWorkers(); all != 0 {
		t.Errorf("Streams.Close returned with %d workers running", all)
	}
	wg.Wait()
}

// goroutineID is the calling goroutine's number, from its stack header.
func goroutineID() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}

// streamWorkers counts the goroutines serving call streams, and the idle
// ones among them.
func streamWorkers() (all, idle int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "callplane.(*callServer).work") {
			all++
			if strings.Contains(g, "callplane.(*callServer).rejoin") {
				idle++
			}
		}
	}
	return all, idle
}

// appendGrant appends the answer frame of a lookup of id: one active grant.
func appendGrant(dst []byte, id int) []byte {
	dst, at := wire.BeginAnswer(dst, 1)
	dst = wire.AppendDecision(dst, &wire.ReservationJSON{ID: id, Accepted: true, State: wire.StateActive})
	return wire.EndFrame(dst, at)
}

// waitFor polls cond until it holds, failing t after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// BenchmarkCallPipe is the call plane alone: one framed lookup from
// client.Client down the call stream to a handler that answers a fixed
// frame, and back, over net.Pipe, so neither a daemon nor the kernel's
// loopback is in it. The root package's Stages/call-pipe is the same loop
// with the daemon's Server.Call behind it.
func BenchmarkCallPipe(b *testing.B) {
	const id = 4096
	answer := appendGrant(nil, id)
	h := func(_ context.Context, c *Call) Reply {
		c.Buf.B = append(c.Buf.B[:0], answer...)
		return Reply{Status: http.StatusOK}
	}
	var ss Streams
	defer ss.Close()
	mux := http.NewServeMux()
	mux.Handle(wire.OpGet.Pattern(), CallRoute(&ss, h, wire.OpGet, JSONFace{}))
	l := newPipeListener()
	hs := &http.Server{Handler: mux}
	go hs.Serve(l)
	defer hs.Close()
	c := client.New("http://pipe", &http.Client{Transport: &http.Transport{DialContext: l.dial}})
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ { // the first call upgrades; the second is on the stream
		if _, err := c.Get(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// pipeListener is a net.Listener whose connections are net.Pipe ends: dial
// hands the far end of each new pipe to Accept.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	cli, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return cli, nil
	case <-l.done:
	case <-ctx.Done():
	}
	cli.Close()
	srv.Close()
	return nil, net.ErrClosed
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
