package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// TestIdempotentSubmit: the same idempotency key returns the original
// decision without booking twice; a different key books again.
func TestIdempotentSubmit(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))
	sub := server.Submission{
		From: 0, To: 0, Volume: 100 * units.GB, Deadline: 400,
		MaxRate: 1 * units.GBps, IdempotencyKey: "k1",
	}
	d1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if d2.ID != d1.ID || !d2.Accepted {
		t.Fatalf("retry got %+v, want original %+v", d2, d1)
	}
	st := s.Status()
	if st.Stats.Accepted != 1 || st.Stats.Submitted != 1 {
		t.Errorf("accepted/submitted = %d/%d, want 1/1", st.Stats.Accepted, st.Stats.Submitted)
	}
	if st.Stats.IdempotentHits != 1 {
		t.Errorf("idempotent hits = %d, want 1", st.Stats.IdempotentHits)
	}
	sub.IdempotencyKey = "k2"
	d3, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if d3.ID == d1.ID {
		t.Error("fresh key reused the old reservation")
	}
	if err := s.VerifyInvariant(); err != nil {
		t.Error(err)
	}
}

// TestIdempotentSubmitCachesRejections: a rejected submission retried
// under the same key answers the same rejection without re-running (and
// re-counting) admission.
func TestIdempotentSubmitCachesRejections(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	sub := server.Submission{
		From: 0, To: 0, Volume: 100 * units.GB, Deadline: 1,
		MaxRate: 1 * units.MBps, IdempotencyKey: "doomed",
	}
	d1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Accepted {
		t.Fatal("infeasible submission accepted")
	}
	d2, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Accepted || d2.Reason != d1.Reason {
		t.Errorf("retry answered %+v, want cached rejection %+v", d2, d1)
	}
	if st := s.Status(); st.Stats.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Stats.Rejected)
	}
}

// TestLoadShedding: with one in-flight slot occupied by a durable
// submission parked on its sync-ack wait, the next submission is shed with
// 429 and a Retry-After hint, while read endpoints keep answering. A JSON
// body is read and decoded before the in-flight check, as a frame is read
// before it, so a malformed one is a 400 under overload too.
func TestLoadShedding(t *testing.T) {
	cfg := uniformConfig(nil)
	cfg.WAL = openTestWAL(t)
	cfg.MaxInFlight = 1
	cfg.RetryAfter = 3 * time.Second
	cfg.SyncTimeout = time.Minute
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only slot: with no follower to ack it, a durable
	// submission waits until the server closes.
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/requests", "application/json",
			strings.NewReader(`{"from":0,"to":0,"volume_bytes":1,"max_rate_bps":1,"deadline_s":10,"durable":true}`))
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked submission never took the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}

	// The body is decoded before the in-flight check.
	malformed, err := ts.Client().Post(ts.URL+"/v1/requests", "application/json", strings.NewReader(`{"from":`))
	if err != nil {
		t.Fatal(err)
	}
	malformed.Body.Close()
	if malformed.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body under overload answered %d, want 400", malformed.StatusCode)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/requests", "application/json",
		strings.NewReader(`{"from":0,"to":0,"volume_bytes":1,"max_rate_bps":1,"deadline_s":10}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}

	// Reads are not shed: healthz still answers and reports the pressure.
	hresp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health wire.HealthJSON
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %d %q, want 200 ok", hresp.StatusCode, health.Status)
	}
	if health.InFlight != 1 || health.MaxInFlight != 1 {
		t.Errorf("in_flight = %d/%d, want 1/1", health.InFlight, health.MaxInFlight)
	}
	if health.Shed != 1 {
		t.Errorf("shed_total = %d, want 1", health.Shed)
	}

	// Release the parked submission; the slot must come back.
	s.Close()
	<-errc
	deadline = time.Now().Add(5 * time.Second)
	for s.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight slot never released")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecovererTurnsPanicsInto500: a panicking handler yields a 500 and
// a counted, audited panic — not a dropped connection.
func TestRecovererTurnsPanicsInto500(t *testing.T) {
	log := &eventSink{}
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.Decisions = log
	s := newTestServer(t, cfg)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(s.Recoverer(mux))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if st := s.Status(); st.Stats.Panics != 1 {
		t.Errorf("panics = %d, want 1", st.Stats.Panics)
	}
	events := log.Events()
	if len(events) != 1 || events[0].Kind != trace.EventPanic ||
		!strings.Contains(events[0].Reason, "kaboom") {
		t.Errorf("logged events = %+v, want one panic event naming kaboom", events)
	}
}

// TestHealthzDraining: the readiness probe flips to 503 once the server
// closes.
func TestHealthzDraining(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open server healthz = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health wire.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Errorf("closed server healthz = %d %q, want 503 draining", resp.StatusCode, health.Status)
	}
}

// TestIdempotencyHeaderSpellings: the Idempotency-Key header works, and
// a header/body disagreement is a 400.
func TestIdempotencyHeaderSpellings(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(hdr, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/requests",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if hdr != "" {
			req.Header.Set("Idempotency-Key", hdr)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	good := `{"from":0,"to":0,"volume_bytes":1e9,"max_rate_bps":1e9,"deadline_s":100}`
	if resp := post("hk", good); resp.StatusCode != http.StatusCreated {
		t.Fatalf("header-keyed submit = %d", resp.StatusCode)
	}
	var first wire.ReservationJSON
	resp := post("hk", good)
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Stats.IdempotentHits != 1 {
		t.Errorf("idempotent hits = %d, want 1 from header retry", st.Stats.IdempotentHits)
	}
	conflict := `{"from":0,"to":0,"volume_bytes":1e9,"max_rate_bps":1e9,"deadline_s":100,"idempotency_key":"other"}`
	if resp := post("hk", conflict); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("disagreeing keys = %d, want 400", resp.StatusCode)
	}
}

// TestReplayFullLog rebuilds the daemon from its decision history alone —
// a fresh server plus ApplyEvents, the full-WAL boot route — and checks the
// result against the live server it mirrors.
func TestReplayFullLog(t *testing.T) {
	log := &eventSink{}
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.Decisions = log
	s := newTestServer(t, cfg)

	subs := []server.Submission{
		{From: 0, To: 1, Volume: 100 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps},
		{From: 1, To: 0, Volume: 50 * units.GB, Deadline: 200, MaxRate: 500 * units.MBps},
		{From: 0, To: 0, Volume: 10 * units.GB, Deadline: 5, MaxRate: 1 * units.MBps}, // infeasible
	}
	var ids []int
	for _, sub := range subs {
		d, err := s.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		if d.Accepted {
			ids = append(ids, int(d.ID))
		}
	}
	if len(ids) != 2 {
		t.Fatalf("accepted %d, want 2", len(ids))
	}
	if _, err := s.Cancel(2); err == nil {
		t.Fatal("cancel of rejected id succeeded")
	}
	if _, err := s.Cancel(1); err != nil {
		t.Fatal(err)
	}

	events := log.Events()
	s2 := newTestServer(t, uniformConfig(clk))
	if n, err := s2.ApplyEvents(events); err != nil || n != len(events) {
		t.Fatalf("replay applied %d of %d events: %v", n, len(events), err)
	}

	if err := s2.VerifyInvariant(); err != nil {
		t.Error(err)
	}
	want := s.LiveReservations()
	got := s2.LiveReservations()
	if len(got) != len(want) || len(got) != 1 {
		t.Fatalf("live after replay = %d, want %d", len(got), len(want))
	}
	if got[0].Req.ID != want[0].Req.ID || got[0].Grant != want[0].Grant {
		t.Errorf("replayed reservation %+v, want %+v", got[0], want[0])
	}
	st, st2 := s.Status(), s2.Status()
	if st2.Stats.Accepted != st.Stats.Accepted || st2.Stats.Rejected != st.Stats.Rejected ||
		st2.Stats.Cancelled != st.Stats.Cancelled {
		t.Errorf("replayed counters %+v, want %+v", st2.Stats, st.Stats)
	}
	// IDs keep flowing after the replayed ones.
	d, err := s2.Submit(server.Submission{
		From: 0, To: 0, Volume: 1 * units.GB, Deadline: 100, MaxRate: 1 * units.GBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(d.ID) < len(subs) {
		t.Errorf("post-replay ID %d collides with replayed range", d.ID)
	}
}

// TestReplayExpiresPassedWindows: a reservation whose τ(r) passed before
// the log ends — the daemon died before writing the expire event — comes
// back expired, not active.
func TestReplayExpiresPassedWindows(t *testing.T) {
	events := []trace.Event{
		{At: 0, Kind: trace.EventAccept, Request: 0, Ingress: 0, Egress: 0,
			RateBps: 1e9, SigmaS: 0, TauS: 10, VolumeB: 1e10, MaxRateBps: 1e9},
		// A later rejection proves the clock reached t=50 with no expire
		// event for request 0 ever logged.
		{At: 50, Kind: trace.EventReject, Request: 1, Ingress: 0, Egress: 0,
			Reason: "capacity saturated"},
	}
	clk := &fakeClock{}
	s := newTestServer(t, server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps},
		Clock:   clk.now,
	})
	if _, err := s.ApplyEvents(events); err != nil {
		t.Fatal(err)
	}
	if live := s.LiveReservations(); len(live) != 0 {
		t.Errorf("live = %d, want 0", len(live))
	}
	st := s.Status()
	if st.Stats.Accepted != 1 || st.Stats.Expired != 1 {
		t.Errorf("counters = %+v, want accepted 1 expired 1", st.Stats)
	}
	if st.Now != 50 {
		t.Errorf("service clock resumed at %v, want the last event's 50", st.Now)
	}
}

// TestReplayRefusesOverCapacityLog: replay books every accept and hold
// through the ledger's capacity check, so a log that over-commits a point
// is refused — whichever event kind carries the excess.
func TestReplayRefusesOverCapacityLog(t *testing.T) {
	full := trace.Event{At: 0, Kind: trace.EventAccept, Request: 0, Ingress: 0, Egress: 0,
		RateBps: 1e9, SigmaS: 0, TauS: 10, VolumeB: 1e10, MaxRateBps: 1e9}
	excess := map[string]trace.Event{
		"accept": {At: 1, Kind: trace.EventAccept, Request: 1, Ingress: 0, Egress: 0,
			RateBps: 1e8, SigmaS: 1, TauS: 5, VolumeB: 4e8, MaxRateBps: 1e8},
		"hold": {At: 1, Kind: trace.EventHoldReserve, Request: 1, Ingress: 0, Egress: -1,
			Hold: "h", Side: trace.HoldSideIngress, RateBps: 1e8, SigmaS: 1, TauS: 5, ExpireS: 6},
	}
	for name, ev := range excess {
		s := newTestServer(t, server.Config{
			Ingress: []units.Bandwidth{1 * units.GBps},
			Egress:  []units.Bandwidth{1 * units.GBps},
			Clock:   (&fakeClock{}).now,
		})
		if n, err := s.ApplyEvents([]trace.Event{full, ev}); err == nil || n != 1 {
			t.Errorf("%s: over-capacity log applied %d events, err %v; want refusal after 1", name, n, err)
		}
	}
}
