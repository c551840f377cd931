package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// instant returns Options that never sleep on the real clock and record
// every backoff the retry loop chose.
func instant(backoffs *[]time.Duration) Options {
	return Options{
		Jitter: func() float64 { return 0 },
		Sleep: func(ctx context.Context, d time.Duration) error {
			if backoffs != nil {
				*backoffs = append(*backoffs, d)
			}
			return ctx.Err()
		},
	}
}

// TestDefaultTimeoutsNonZero: a nil *http.Client must not degrade to
// http.DefaultClient, whose zero timeout hangs forever on a stuck daemon.
func TestDefaultTimeoutsNonZero(t *testing.T) {
	c := New("http://127.0.0.1:0", nil)
	if c.hc == http.DefaultClient {
		t.Fatal("nil hc degraded to http.DefaultClient")
	}
	if c.hc.Timeout <= 0 {
		t.Fatalf("default HTTP client timeout = %v, want > 0", c.hc.Timeout)
	}
	if c.opts.CallTimeout <= 0 {
		t.Fatalf("default per-call timeout = %v, want > 0", c.opts.CallTimeout)
	}
}

// TestRetriesTransient503: two 503 answers then success — the call
// succeeds after backing off twice.
func TestRetriesTransient503(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"now_s":1,"policy":"minbw"}`))
	}))
	defer ts.Close()

	var backoffs []time.Duration
	c := NewWithOptions(ts.URL, nil, instant(&backoffs))
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy != "minbw" {
		t.Errorf("policy = %q", st.Policy)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
	if len(backoffs) != 2 {
		t.Fatalf("backoffs = %v, want 2 waits", backoffs)
	}
	if backoffs[1] <= backoffs[0] {
		t.Errorf("backoff not growing: %v", backoffs)
	}
}

// TestHonorsRetryAfter: a 429 with Retry-After overrides the exponential
// schedule.
func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"now_s":1}`))
	}))
	defer ts.Close()

	var backoffs []time.Duration
	c := NewWithOptions(ts.URL, nil, instant(&backoffs))
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(backoffs) != 1 || backoffs[0] != 7*time.Second {
		t.Errorf("backoffs = %v, want [7s] from Retry-After", backoffs)
	}
}

// TestNoRetryOnClientError: a 400 is the caller's bug; retrying would
// just repeat it.
func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := NewWithOptions(ts.URL, nil, instant(nil))
	_, err := c.Status(context.Background())
	if err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (no retries on 4xx)", calls.Load())
	}
}

// TestRetryLimitExhausted: a daemon that never recovers yields the last
// error after MaxRetries extra attempts.
func TestRetryLimitExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := NewWithOptions(ts.URL, nil, func() Options {
		o := instant(nil)
		o.MaxRetries = 2
		return o
	}())
	_, err := c.Status(context.Background())
	ae, ok := err.(*APIError)
	if !ok || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 1 + 2 retries", calls.Load())
	}
}

// TestSubmitRetryNeverBooksTwice drives a retried Submit against a real
// server: the first answer is dropped on the floor (simulating a lost
// response), the retry carries the same auto-generated idempotency key,
// and the daemon books exactly once.
func TestSubmitRetryNeverBooksTwice(t *testing.T) {
	srv, err := server.New(server.Config{
		Ingress: []units.Bandwidth{units.GBps},
		Egress:  []units.Bandwidth{units.GBps},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// failFirst drops the first response after the server has fully
	// processed it — the client sees a transport error and retries.
	var calls atomic.Int64
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && calls.Add(1) == 1 {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)     // decision made and logged...
			panic(http.ErrAbortHandler) // ...but the answer never leaves
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewWithOptions(ts.URL, nil, instant(nil))
	dec, err := c.Submit(context.Background(), wire.SubmitRequest{
		From: 0, To: 0,
		VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Accepted {
		t.Fatalf("decision = %+v", dec)
	}
	st := srv.Status()
	if st.Stats.Accepted != 1 {
		t.Errorf("accepted = %d, want exactly 1 booking across the retry", st.Stats.Accepted)
	}
	if st.Stats.IdempotentHits != 1 {
		t.Errorf("idempotent hits = %d, want 1 (the retry)", st.Stats.IdempotentHits)
	}
	if len(srv.LiveReservations()) != 1 {
		t.Errorf("live reservations = %d, want 1", len(srv.LiveReservations()))
	}
}

// TestIdempotencyKeyStable: an explicit key is preserved, a missing one
// is filled in.
func TestIdempotencyKeyStable(t *testing.T) {
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, framedKey(t, r))
		w.Write([]byte(`{"id":0,"accepted":true,"state":"active"}`))
	}))
	defer ts.Close()

	c := NewWithOptions(ts.URL, nil, instant(nil))
	ctx := context.Background()
	if _, err := c.Submit(ctx, wire.SubmitRequest{IdempotencyKey: "fixed"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, wire.SubmitRequest{}); err != nil {
		t.Fatal(err)
	}
	if seen[0] != "fixed" {
		t.Errorf("explicit key overwritten: %q", seen[0])
	}
	if seen[1] == "" {
		t.Error("no key auto-generated")
	}
	if k := NewIdempotencyKey(); k == NewIdempotencyKey() {
		t.Errorf("generated keys collide: %q", k)
	}
}

// TestNewIdempotencyKeyShape: a generated key is 32 lowercase hex digits,
// 10k of them are distinct, and making one allocates only the key.
func TestNewIdempotencyKeyShape(t *testing.T) {
	seen := make(map[string]bool, 10000)
	for i := 0; i < 10000; i++ {
		k := NewIdempotencyKey()
		if len(k) != 32 || strings.Trim(k, "0123456789abcdef") != "" {
			t.Fatalf("key %q is not 32 lowercase hex digits", k)
		}
		if seen[k] {
			t.Fatalf("key %q generated twice in %d", k, i+1)
		}
		seen[k] = true
	}
	if raceEnabled {
		return // allocation counts are meaningless under -race
	}
	var k string
	if n := testing.AllocsPerRun(100, func() { k = NewIdempotencyKey() }); n != 1 {
		t.Errorf("NewIdempotencyKey allocates %v times, want 1 (the key)", n)
	}
	_ = k
}

// TestSubmitBatchRetryNeverBooksTwice: a dropped batch response is
// retried wholesale, and every item answers from the idempotency cache —
// the daemon books each submission exactly once.
func TestSubmitBatchRetryNeverBooksTwice(t *testing.T) {
	srv, err := server.New(server.Config{
		Ingress: []units.Bandwidth{units.GBps, units.GBps},
		Egress:  []units.Bandwidth{units.GBps, units.GBps},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var calls atomic.Int64
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && calls.Add(1) == 1 {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)     // batch decided and logged...
			panic(http.ErrAbortHandler) // ...but the answer never leaves
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewWithOptions(ts.URL, nil, instant(nil))
	results, err := c.SubmitBatch(context.Background(), []wire.SubmitRequest{
		{From: 0, To: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100},
		{From: 1, To: 0, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for i, res := range results {
		if res.Error != "" || res.Reservation == nil || !res.Reservation.Accepted {
			t.Fatalf("item %d = %+v", i, res)
		}
	}
	st := srv.Status()
	if st.Stats.Accepted != 2 {
		t.Errorf("accepted = %d, want exactly 2 bookings across the retry", st.Stats.Accepted)
	}
	if st.Stats.IdempotentHits != 2 {
		t.Errorf("idempotent hits = %d, want 2 (the retried batch)", st.Stats.IdempotentHits)
	}
	if n := len(srv.LiveReservations()); n != 2 {
		t.Errorf("live reservations = %d, want 2", n)
	}
}
