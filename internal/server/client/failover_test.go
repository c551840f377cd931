package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/server"
)

// fakeDaemon is a scriptable endpoint for failover tests: it answers the
// replication-status probe with a fixed role/epoch and runs a scripted
// handler for submissions, recording every idempotency key it sees.
type fakeDaemon struct {
	ts     *httptest.Server
	role   string
	epoch  uint64
	delay  time.Duration // added to every status answer
	submit http.HandlerFunc

	mu   sync.Mutex
	keys []string
}

func newFakeDaemon(t *testing.T, role string, epoch uint64, submit http.HandlerFunc) *fakeDaemon {
	t.Helper()
	d := &fakeDaemon{role: role, epoch: epoch, submit: submit}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
		if d.delay > 0 {
			time.Sleep(d.delay)
		}
		json.NewEncoder(w).Encode(cluster.ReplicationStatus{Role: d.role, Epoch: d.epoch})
	})
	mux.HandleFunc("POST /v1/requests", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		d.keys = append(d.keys, framedKey(t, r))
		d.mu.Unlock()
		d.submit(w, r)
	})
	d.ts = httptest.NewServer(mux)
	t.Cleanup(d.ts.Close)
	return d
}

// framedKey decodes the one-record frame a Submit sends and returns its
// idempotency key.
func framedKey(t *testing.T, r *http.Request) string {
	t.Helper()
	blob, err := io.ReadAll(r.Body)
	if err != nil {
		t.Error(err)
	}
	ws, err := server.DecodeBinarySubmitRequest(blob)
	if err != nil {
		t.Errorf("submit body is not a one-record frame: %v", err)
	}
	return ws.IdempotencyKey
}

func (d *fakeDaemon) seenKeys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.keys...)
}

func acceptSubmit(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(server.ReservationJSON{ID: 7, Accepted: true, State: "active"})
}

func refuseReadOnly(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusForbidden)
	json.NewEncoder(w).Encode(server.ErrorJSON{Error: "server: read-only follower"})
}

// TestFailoverOnTransportError: the configured primary is unreachable; the
// client re-discovers the real primary among its fallbacks and re-sends
// the same idempotency key there.
func TestFailoverOnTransportError(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from the first byte
	alive := newFakeDaemon(t, "primary", 2, acceptSubmit)

	c := NewWithOptions(dead.URL, nil, instant(nil), alive.ts.URL)
	r, err := c.Submit(context.Background(), server.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 100, MaxRateBps: 1e9,
		IdempotencyKey: "xfer-42",
	})
	if err != nil || !r.Accepted {
		t.Fatalf("submit across dead primary: %v %+v", err, r)
	}
	if c.Endpoint() != alive.ts.URL {
		t.Fatalf("endpoint after failover = %s, want %s", c.Endpoint(), alive.ts.URL)
	}
	if keys := alive.seenKeys(); len(keys) != 1 || keys[0] != "xfer-42" {
		t.Fatalf("new primary saw keys %v, want exactly the original [xfer-42]", keys)
	}
}

// TestFailoverOnReadOnly: a 403 from a demoted-or-never-primary endpoint
// is not retryable in place, but with fallbacks it triggers re-discovery —
// and the same key lands on the primary.
func TestFailoverOnReadOnly(t *testing.T) {
	follower := newFakeDaemon(t, "follower", 2, refuseReadOnly)
	primary := newFakeDaemon(t, "primary", 2, acceptSubmit)

	c := NewWithOptions(follower.ts.URL, nil, instant(nil), primary.ts.URL)
	r, err := c.Submit(context.Background(), server.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 100, MaxRateBps: 1e9,
		IdempotencyKey: "xfer-43",
	})
	if err != nil || !r.Accepted {
		t.Fatalf("submit via follower: %v %+v", err, r)
	}
	if got := follower.seenKeys(); len(got) != 1 {
		t.Fatalf("follower saw %d submits, want exactly 1 before failover", len(got))
	}
	if keys := primary.seenKeys(); len(keys) != 1 || keys[0] != "xfer-43" {
		t.Fatalf("primary saw keys %v, want [xfer-43]", keys)
	}
}

// TestRediscoverPrefersHighestEpoch: during a partition both sides may
// claim primary; the client must side with the higher fencing epoch — the
// lineage whose writes are not fenced off.
func TestRediscoverPrefersHighestEpoch(t *testing.T) {
	deposed := newFakeDaemon(t, "primary", 1, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.ErrorJSON{Error: "flapping"})
	})
	promoted := newFakeDaemon(t, "primary", 2, acceptSubmit)

	c := NewWithOptions(deposed.ts.URL, nil, instant(nil), promoted.ts.URL)
	r, err := c.Submit(context.Background(), server.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 100, MaxRateBps: 1e9,
	})
	if err != nil || !r.Accepted {
		t.Fatalf("submit during split-brain: %v %+v", err, r)
	}
	if c.Endpoint() != promoted.ts.URL {
		t.Fatalf("client sided with epoch-1 claimant %s, want the epoch-2 primary", c.Endpoint())
	}
}

// TestRediscoverOutwaitsFastStaleClaimant: the deposed epoch-1 primary
// answers the status probe instantly while the real epoch-2 primary is
// slow; a follower's fast answer already proves epoch 2 exists. Settling
// once "a majority answered and some primary was seen" would retarget
// the fenced claimant — the sweep must keep draining until the best
// primary seen is at the answered group's maximum epoch.
func TestRediscoverOutwaitsFastStaleClaimant(t *testing.T) {
	deposed := newFakeDaemon(t, "primary", 1, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.ErrorJSON{Error: "flapping"})
	})
	follower := newFakeDaemon(t, "follower", 2, refuseReadOnly)
	promoted := newFakeDaemon(t, "primary", 2, acceptSubmit)
	promoted.delay = 150 * time.Millisecond // last to answer, but the real winner

	opts := instant(nil)
	opts.CallTimeout = 2 * time.Second
	c := NewWithOptions(deposed.ts.URL, nil, opts, follower.ts.URL, promoted.ts.URL)
	r, err := c.Submit(context.Background(), server.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 100, MaxRateBps: 1e9,
		IdempotencyKey: "xfer-45",
	})
	if err != nil || !r.Accepted {
		t.Fatalf("submit past a fast fenced claimant: %v %+v", err, r)
	}
	if c.Endpoint() != promoted.ts.URL {
		t.Fatalf("client settled on %s, want the slow epoch-2 primary", c.Endpoint())
	}
	if keys := promoted.seenKeys(); len(keys) != 1 || keys[0] != "xfer-45" {
		t.Fatalf("promoted primary saw keys %v, want [xfer-45]", keys)
	}
}

// TestRotateWhenNoPrimary: nothing answers as primary mid-failover; the
// retry loop sweeps the endpoint list instead of hammering one address,
// and the terminal error is the daemon's, not an invented one.
func TestRotateWhenNoPrimary(t *testing.T) {
	a := newFakeDaemon(t, "follower", 1, refuseReadOnly)
	b := newFakeDaemon(t, "follower", 1, refuseReadOnly)

	opts := instant(nil)
	opts.MaxRetries = 3
	c := NewWithOptions(a.ts.URL, nil, opts, b.ts.URL)
	_, err := c.Submit(context.Background(), server.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 100, MaxRateBps: 1e9,
	})
	if !IsReadOnly(err) {
		t.Fatalf("err = %v, want the read-only refusal surfaced", err)
	}
	if len(a.seenKeys()) == 0 || len(b.seenKeys()) == 0 {
		t.Fatalf("sweep skipped an endpoint: a=%d b=%d submits", len(a.seenKeys()), len(b.seenKeys()))
	}
}

// TestRediscoverBoundedByHungEndpoint: at N=5, one endpoint that accepts
// the connection and never answers must not serialize re-discovery — the
// probes run concurrently and the sweep settles on the primary as soon as
// a majority of the group has answered, so failover latency is bounded by
// the fastest majority, not by per-endpoint timeouts stacked in sequence.
func TestRediscoverBoundedByHungEndpoint(t *testing.T) {
	follower := newFakeDaemon(t, "follower", 2, refuseReadOnly)
	primary := newFakeDaemon(t, "primary", 2, acceptSubmit)
	f2 := newFakeDaemon(t, "follower", 2, refuseReadOnly)
	f3 := newFakeDaemon(t, "follower", 2, refuseReadOnly)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // answer nothing until the caller gives up
	}))
	t.Cleanup(hung.Close)

	opts := instant(nil)
	opts.CallTimeout = 500 * time.Millisecond
	// The hung endpoint sits ahead of the primary in the list, so the old
	// sequential sweep would stall a full CallTimeout before reaching it.
	c := NewWithOptions(follower.ts.URL, nil, opts, hung.URL, f2.ts.URL, f3.ts.URL, primary.ts.URL)
	started := time.Now()
	r, err := c.Submit(context.Background(), server.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 100, MaxRateBps: 1e9,
		IdempotencyKey: "xfer-44",
	})
	elapsed := time.Since(started)
	if err != nil || !r.Accepted {
		t.Fatalf("submit with a hung endpoint in the group: %v %+v", err, r)
	}
	if c.Endpoint() != primary.ts.URL {
		t.Fatalf("endpoint after failover = %s, want the primary", c.Endpoint())
	}
	if elapsed >= opts.CallTimeout {
		t.Fatalf("failover took %v, want bounded below the %v per-attempt timeout (hung endpoint serialized the sweep)", elapsed, opts.CallTimeout)
	}
	if keys := primary.seenKeys(); len(keys) != 1 || keys[0] != "xfer-44" {
		t.Fatalf("primary saw keys %v, want [xfer-44]", keys)
	}
}

// TestSingleEndpointReadOnlyFailsFast: without fallbacks a 403 keeps its
// old semantics — one attempt, immediate error, no invented retries.
func TestSingleEndpointReadOnlyFailsFast(t *testing.T) {
	follower := newFakeDaemon(t, "follower", 1, refuseReadOnly)
	c := NewWithOptions(follower.ts.URL, nil, instant(nil))
	_, err := c.Submit(context.Background(), server.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 100, MaxRateBps: 1e9,
	})
	if !IsReadOnly(err) {
		t.Fatalf("err = %v, want read-only", err)
	}
	if n := len(follower.seenKeys()); n != 1 {
		t.Fatalf("single-endpoint client tried %d times on 403, want 1", n)
	}
}

// TestProbeCooldownCachesNegativeSweeps is the regression test for the
// rediscovery storm: a group whose members are all permanently fenced
// (read-only followers, no primary anywhere) used to trigger a full
// status-probe sweep on every failed request. The negative-result cache
// must swallow repeat sweeps until the cooldown lapses, then allow
// exactly one more.
func TestProbeCooldownCachesNegativeSweeps(t *testing.T) {
	var probes atomic.Int64
	follower := func() *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, r *http.Request) {
			probes.Add(1)
			json.NewEncoder(w).Encode(cluster.ReplicationStatus{Role: "follower", Epoch: 3})
		})
		mux.HandleFunc("POST /v1/requests", refuseReadOnly)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := follower(), follower()

	now := time.Unix(0, 0)
	var mu sync.Mutex
	opts := instant(nil)
	opts.MaxRetries = -1 // one attempt per call: sweeps map 1:1 to Submits
	opts.Now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	c := NewWithOptions(a.URL, nil, opts, b.URL)

	submit := func() {
		t.Helper()
		_, err := c.Submit(context.Background(), server.SubmitRequest{
			From: 0, To: 0, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100,
		})
		if err == nil {
			t.Fatal("submit to an all-follower group succeeded")
		}
	}

	submit()
	after := probes.Load()
	if after == 0 {
		t.Fatal("first failure swept no endpoints")
	}
	// Within the cooldown: rotate blindly, no new probes.
	for i := 0; i < 5; i++ {
		submit()
	}
	if got := probes.Load(); got != after {
		t.Fatalf("probes during cooldown = %d, want frozen at %d", got, after)
	}
	// Past the cooldown: exactly one more sweep is allowed.
	mu.Lock()
	now = now.Add(defaultProbeCooldown + time.Millisecond)
	mu.Unlock()
	submit()
	if got := probes.Load(); got <= after || got > after+2 {
		t.Fatalf("probes after cooldown = %d, want one fresh sweep over 2 endpoints (was %d)", got, after)
	}
}
