package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

// TestSubmitBatchMixedOutcomes: one call carrying an accept, a domain
// rejection and a malformed submission answers all three, in input order.
func TestSubmitBatchMixedOutcomes(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))
	res, err := s.SubmitBatch([]server.Submission{
		{From: 0, To: 1, Volume: 100 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps},
		{From: 1, To: 0, Volume: 100 * units.GB, Deadline: 10, MaxRate: 1 * units.GBps}, // infeasible window
		{From: 9, To: 0, Volume: 1 * units.GB, Deadline: 100, MaxRate: 1 * units.GBps},  // bad ingress
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].Err != nil || !res[0].Decision.Accepted {
		t.Errorf("item 0 = %+v, want accepted", res[0])
	}
	if res[1].Err != nil || res[1].Decision.Accepted {
		t.Errorf("item 1 = %+v, want rejected decision", res[1])
	}
	if res[1].Decision.State != server.StateRejected {
		t.Errorf("item 1 state = %q", res[1].Decision.State)
	}
	if res[2].Err == nil {
		t.Error("item 2 (bad ingress) returned no error")
	}
	if st := s.Status(); st.Stats.Batches != 1 || st.Stats.BatchRequests != 3 {
		t.Errorf("batch counters = %d/%d, want 1/3", st.Stats.Batches, st.Stats.BatchRequests)
	}
	if err := s.VerifyInvariant(); err != nil {
		t.Error(err)
	}
}

// TestSubmitBatchOrderIndependentOfRoute: results come back in input
// order even though admission runs in sorted pair order.
func TestSubmitBatchOrderIndependentOfRoute(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))
	var subs []server.Submission
	for i := 0; i < 8; i++ {
		subs = append(subs, server.Submission{
			From: (i + 1) % 2, To: i % 2,
			Volume: 10 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps,
		})
	}
	res, err := s.SubmitBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || !r.Decision.Accepted {
			t.Fatalf("item %d = %+v", i, r)
		}
		if i > 0 && res[i].Decision.ID <= res[i-1].Decision.ID {
			t.Errorf("IDs out of input order: %d then %d", res[i-1].Decision.ID, res[i].Decision.ID)
		}
	}
}

// TestSubmitBatchLimits: empty and oversized batches fail the whole call.
func TestSubmitBatchLimits(t *testing.T) {
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.MaxBatch = 2
	s := newTestServer(t, cfg)
	if _, err := s.SubmitBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	sub := server.Submission{From: 0, To: 0, Volume: units.GB, Deadline: 100, MaxRate: units.GBps}
	if _, err := s.SubmitBatch([]server.Submission{sub, sub, sub}); err == nil {
		t.Error("oversized batch accepted")
	}
	if s.MaxBatch() != 2 {
		t.Errorf("MaxBatch = %d", s.MaxBatch())
	}
}

// TestSubmitBatchIdempotentRetry: re-sending a keyed batch answers every
// item from the cache — same IDs, nothing booked twice — including a key
// duplicated inside a single batch.
func TestSubmitBatchIdempotentRetry(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))
	subs := []server.Submission{
		{From: 0, To: 1, Volume: 50 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps, IdempotencyKey: "a"},
		{From: 1, To: 0, Volume: 50 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps, IdempotencyKey: "b"},
	}
	first, err := s.SubmitBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.SubmitBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range subs {
		if first[i].Err != nil || again[i].Err != nil {
			t.Fatalf("item %d errored: %+v / %+v", i, first[i], again[i])
		}
		if first[i].Decision.ID != again[i].Decision.ID {
			t.Errorf("retry of item %d booked %d, want original %d",
				i, again[i].Decision.ID, first[i].Decision.ID)
		}
	}
	if st := s.Status(); st.Stats.Accepted != 2 || st.Stats.IdempotentHits != 2 {
		t.Errorf("accepted=%d hits=%d, want 2/2", st.Stats.Accepted, st.Stats.IdempotentHits)
	}

	// The same key twice within one batch must also book exactly once.
	dup, err := s.SubmitBatch([]server.Submission{
		{From: 0, To: 0, Volume: 10 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps, IdempotencyKey: "dup"},
		{From: 0, To: 0, Volume: 10 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps, IdempotencyKey: "dup"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dup[0].Err != nil || dup[1].Err != nil || dup[0].Decision.ID != dup[1].Decision.ID {
		t.Errorf("intra-batch duplicate key: %+v vs %+v", dup[0], dup[1])
	}
	if st := s.Status(); st.Stats.Accepted != 3 {
		t.Errorf("accepted = %d, want 3", st.Stats.Accepted)
	}
}

// TestSubmitBatchParallelDisjointRoutes: concurrent batches over disjoint
// point pairs all admit, and the cross-shard audit plus independent replay
// stay clean throughout.
func TestSubmitBatchParallelDisjointRoutes(t *testing.T) {
	const points, perRoute, rounds = 4, 4, 8
	clk := &fakeClock{}
	var caps []units.Bandwidth
	for i := 0; i < points; i++ {
		caps = append(caps, 10*units.GBps)
	}
	s := newTestServer(t, server.Config{Ingress: caps, Egress: caps, Clock: clk.now})

	var wg sync.WaitGroup
	for p := 0; p < points; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				subs := make([]server.Submission, perRoute)
				for k := range subs {
					subs[k] = server.Submission{
						From: p, To: p,
						Volume: 1 * units.GB, Deadline: 1000, MaxRate: 200 * units.MBps,
					}
				}
				res, err := s.SubmitBatch(subs)
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range res {
					if r.Err != nil || !r.Decision.Accepted {
						t.Errorf("route %d: %+v", p, r)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	if err := s.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(s.LiveReservations()), points*perRoute*rounds; got != want {
		t.Errorf("live reservations = %d, want %d", got, want)
	}
}

// TestBatchHTTPEndpoint: POST /v1/batch decides well-formed items and
// reports malformed ones in place, keeping input order on the wire.
func TestBatchHTTPEndpoint(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"requests":[
		{"from":0,"to":1,"volume_bytes":1e10,"max_rate_bps":1e9,"deadline_s":400},
		{"from":0,"to":0,"volume":"1GB","volume_bytes":5,"max_rate_bps":1e9,"deadline_s":400},
		{"from":1,"to":0,"volume":"10GB","max_rate":"1GB/s","deadline_s":400}
	]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	if out.Results[0].Reservation == nil || !out.Results[0].Reservation.Accepted {
		t.Errorf("item 0 = %+v", out.Results[0])
	}
	if out.Results[1].Error == "" || out.Results[1].Reservation != nil {
		t.Errorf("item 1 (conflicting volume fields) = %+v", out.Results[1])
	}
	if out.Results[2].Reservation == nil || !out.Results[2].Reservation.Accepted {
		t.Errorf("item 2 = %+v", out.Results[2])
	}

	for bad, want := range map[string]int{
		`{"requests":[]}`: http.StatusBadRequest,
		`{"bogus":1}`:     http.StatusBadRequest,
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s = %d, want %d", bad, resp.StatusCode, want)
		}
	}
}

// TestClosedRefusesBatchAndCancel: a draining server answers ErrClosed to
// SubmitBatch and — the satellite-1 regression — to Cancel, whose seed
// implementation mutated the ledger with the expiry loop already stopped.
func TestClosedRefusesBatchAndCancel(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d, err := s.Submit(server.Submission{
		From: 0, To: 1, Volume: 10 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps,
	})
	if err != nil || !d.Accepted {
		t.Fatalf("submit: %v %+v", err, d)
	}
	s.Close()

	if _, err := s.SubmitBatch([]server.Submission{{From: 0, To: 0, Volume: units.GB, Deadline: 100, MaxRate: units.GBps}}); err != server.ErrClosed {
		t.Errorf("SubmitBatch on closed = %v, want ErrClosed", err)
	}
	if _, err := s.Cancel(d.ID); err != server.ErrClosed {
		t.Errorf("Cancel on closed = %v, want ErrClosed", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/requests/%d", ts.URL, d.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("DELETE on draining daemon = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"requests":[{"from":0,"to":0,"volume_bytes":1e9,"max_rate_bps":1e9,"deadline_s":100}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch on draining daemon = %d, want 503", resp.StatusCode)
	}
	// The live reservation survived the refused cancel.
	if n := len(s.LiveReservations()); n != 1 {
		t.Errorf("live reservations = %d, want 1", n)
	}
}

// TestSnapshotCarriesTerminalIdempotency: the satellite-2 regression — a
// snapshot must persist decisions for rejected and cancelled keys too, so
// those retries stay idempotent across a restart instead of re-admitting.
func TestSnapshotCarriesTerminalIdempotency(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))

	rejected, err := s.Submit(server.Submission{
		From: 0, To: 1, Volume: 100 * units.GB, Deadline: 10,
		MaxRate: 1 * units.GBps, IdempotencyKey: "rejected-key",
	})
	if err != nil || rejected.Accepted {
		t.Fatalf("want rejection: %v %+v", err, rejected)
	}
	cancelled, err := s.Submit(server.Submission{
		From: 0, To: 1, Volume: 10 * units.GB, Deadline: 400,
		MaxRate: 1 * units.GBps, IdempotencyKey: "cancelled-key",
	})
	if err != nil || !cancelled.Accepted {
		t.Fatalf("submit: %v %+v", err, cancelled)
	}
	if _, err := s.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Snapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap, err := server.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if keys := snapKeys(snap); len(keys) != 2 {
		t.Fatalf("snapshot carries idempotency keys %v, want 2 (incl. terminal)", keys)
	}
	s2, err := server.NewFromSnapshot(snap, server.Config{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	d, err := s2.Submit(server.Submission{
		From: 0, To: 1, Volume: 100 * units.GB, Deadline: 10,
		MaxRate: 1 * units.GBps, IdempotencyKey: "rejected-key",
	})
	if err != nil || d.Accepted || d.ID != rejected.ID {
		t.Errorf("post-restart rejected retry = %v %+v, want original rejection %d", err, d, rejected.ID)
	}
	d, err = s2.Submit(server.Submission{
		From: 0, To: 1, Volume: 10 * units.GB, Deadline: 400,
		MaxRate: 1 * units.GBps, IdempotencyKey: "cancelled-key",
	})
	if err != nil || d.ID != cancelled.ID || d.State != server.StateCancelled {
		t.Errorf("post-restart cancelled retry = %v %+v, want cancelled %d", err, d, cancelled.ID)
	}
	if st := s2.Status(); st.Stats.IdempotentHits != 2 {
		t.Errorf("idempotent hits after restart = %d, want 2", st.Stats.IdempotentHits)
	}
	if n := len(s2.LiveReservations()); n != 0 {
		t.Errorf("restart re-admitted %d reservations", n)
	}
}

// TestResendOfEvictedReservationIsNotLive: a key outlives its reservation
// when later reservations finish and push it out of the finished-retention
// ring. A re-send still answers the original ID, and a terminal state — on
// the live daemon as after a restore — not the state the decision had when
// the key was filed.
func TestResendOfEvictedReservationIsNotLive(t *testing.T) {
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.FinishedRetention = 2
	s := newTestServer(t, cfg)
	keyed := server.Submission{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 10, MaxRate: 1 * units.GBps, IdempotencyKey: "k"}
	first, err := s.Submit(keyed)
	if err != nil || !first.Accepted {
		t.Fatalf("submit: %v %+v", err, first)
	}
	for i := 0; i < 2; i++ {
		if d, err := s.Submit(server.Submission{From: 1, To: 0, Volume: 1 * units.GB, Deadline: 20, MaxRate: 1 * units.GBps}); err != nil || !d.Accepted {
			t.Fatalf("submit: %v %+v", err, d)
		}
	}
	clk.advance(30 * time.Second)
	if d, err := s.Lookup(first.ID); err == nil {
		t.Fatalf("reservation %d still retained: %+v", first.ID, d)
	}
	restored, err := server.NewFromSnapshot(s.Snapshot(), server.Config{Clock: clk.now, FinishedRetention: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for name, srv := range map[string]*server.Server{"live": s, "restored": restored} {
		if d, err := srv.Submit(keyed); err != nil || d.ID != first.ID || d.State != server.StateExpired {
			t.Errorf("%s: re-send = %v %+v, want %d expired", name, err, d, first.ID)
		}
	}
}

// TestSnapshotManyReservationsSorted: the satellite-3 regression — a
// snapshot with many live reservations lists them in strict ID order (the
// seed used an O(n²) insertion sort; correctness is the observable part).
func TestSnapshotManyReservationsSorted(t *testing.T) {
	const n = 500
	clk := &fakeClock{}
	caps := []units.Bandwidth{1000 * units.GBps}
	s := newTestServer(t, server.Config{Ingress: caps, Egress: caps, Clock: clk.now})
	for i := 0; i < n; i++ {
		d, err := s.Submit(server.Submission{
			From: 0, To: 0, Volume: 1 * units.GB, Deadline: 10000, MaxRate: 1 * units.GBps,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
	}
	var buf bytes.Buffer
	if err := s.Snapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := server.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != n {
		t.Fatalf("snapshot holds %d events, want %d accepts", len(snap.Events), n)
	}
	for i := 1; i < len(snap.Events); i++ {
		if ev, prev := snap.Events[i], snap.Events[i-1]; ev.Kind != trace.EventAccept || ev.Request <= prev.Request {
			t.Fatalf("snapshot unsorted at %d: %s %d after %d", i, ev.Kind, ev.Request, prev.Request)
		}
	}
}

// TestRetentionEvictionLifecycle: the satellite-5 contract — beyond
// FinishedRetention, terminal reservations disappear from lookup (404 on
// GET and DELETE) and evicted idempotency keys book afresh.
func TestRetentionEvictionLifecycle(t *testing.T) {
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.FinishedRetention = 2
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(key string) server.Decision {
		t.Helper()
		d, err := s.Submit(server.Submission{
			From: 0, To: 1, Volume: 1 * units.GB, Deadline: 10000,
			MaxRate: 1 * units.GBps, IdempotencyKey: key,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("submit: %v %+v", err, d)
		}
		return d
	}

	first := submit("evictable")
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	// Push FinishedRetention newer terminal reservations through; both the
	// finished registry and the idempotency cache evict the oldest.
	for i := 0; i < cfg.FinishedRetention; i++ {
		d := submit(fmt.Sprintf("filler-%d", i))
		if _, err := s.Cancel(d.ID); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := s.Lookup(first.ID); err != server.ErrNotFound {
		t.Errorf("Lookup of evicted reservation = %v, want ErrNotFound", err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d", ts.URL, first.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET evicted = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/requests/%d", ts.URL, first.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE evicted = %d, want 404", resp.StatusCode)
	}

	// The key fell out of the bounded cache with it: reusing it books a
	// fresh reservation instead of answering from the cache.
	rebooked := submit("evictable")
	if rebooked.ID == first.ID {
		t.Errorf("evicted key answered original reservation %d", first.ID)
	}
	if st := s.Status(); st.Stats.IdempotentHits != 0 {
		t.Errorf("idempotent hits = %d, want 0 (key was evicted)", st.Stats.IdempotentHits)
	}
}
