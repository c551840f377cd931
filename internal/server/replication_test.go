package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridbw/internal/alloc"
	"gridbw/internal/cluster"
	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

func openTestWAL(t testing.TB) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// frames encodes events the way a primary's WAL holds and ships them.
func frames(t testing.TB, events ...trace.Event) [][]byte {
	t.Helper()
	out := make([][]byte, len(events))
	for i := range events {
		blob, err := trace.AppendRecord(nil, &events[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = blob
	}
	return out
}

// waitFor polls cond on real time — the pull loop runs on real goroutines
// even when the service clock is fake.
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

// TestReplicationFollowerLifecycle runs the whole warm-standby story over
// real HTTP: the primary's decisions ship to a follower, the follower is
// read-only until promoted, and promotion arms the deferred expiries.
func TestReplicationFollowerLifecycle(t *testing.T) {
	clk := &fakeClock{}

	pcfg := uniformConfig(clk)
	pcfg.WAL = openTestWAL(t)
	primary := newTestServer(t, pcfg)
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	// Three decisions on the primary: two stay live, one is cancelled.
	var ids []int
	for i := 0; i < 3; i++ {
		d, err := primary.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2,
			Volume: 10e9, Deadline: 400, MaxRate: 100e6,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
		ids = append(ids, int(d.ID))
	}
	if _, err := primary.Cancel(request.ID(ids[2])); err != nil {
		t.Fatal(err)
	}

	fcfg := uniformConfig(clk)
	fcfg.WAL = openTestWAL(t)
	fcfg.Follow = ts.URL
	follower, err := server.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.StartFollowing(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "follower catch-up", func() bool {
		rs := follower.ReplicationStatus()
		return rs.Applied >= 4 && rs.LagBytes == 0
	})
	st := follower.Status()
	if st.Role != "follower" || st.Active != 2 || st.Stats.Cancelled != 1 {
		t.Fatalf("follower status after catch-up: role %q, active %d, cancelled %d",
			st.Role, st.Active, st.Stats.Cancelled)
	}
	// The shipped history landed in the follower's own WAL too — a promoted
	// follower must own its lineage.
	if rs := follower.ReplicationStatus(); rs.WALRecords < 4 {
		t.Errorf("follower WAL holds %d records, want >= 4", rs.WALRecords)
	}

	// Writes are refused while following, at the API and over HTTP.
	if _, err := follower.Submit(server.Submission{From: 0, To: 1, Volume: 1e9, Deadline: 100, MaxRate: 1e9}); !errors.Is(err, server.ErrReadOnly) {
		t.Fatalf("follower Submit err = %v, want ErrReadOnly", err)
	}
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()
	fc := client.NewWithOptions(fts.URL, fts.Client(), client.Options{MaxRetries: -1})
	ctx := context.Background()
	if _, err := fc.Submit(ctx, wire.SubmitRequest{From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 100, MaxRateBps: 1e9}); !client.IsReadOnly(err) {
		t.Fatalf("HTTP submit on follower: err = %v, want 403 read-only", err)
	}
	if _, err := fc.Cancel(ctx, ids[0]); !client.IsReadOnly(err) {
		t.Fatalf("HTTP cancel on follower: err = %v, want 403 read-only", err)
	}

	// Lag and role are on the metrics page.
	page, err := fc.Metricsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gridbwd_replication_is_follower 1",
		"gridbwd_replication_lag_bytes 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("follower metricsz missing %q", want)
		}
	}

	// Promote over HTTP; a second promote is an idempotent success.
	pr, err := fc.Promote(ctx)
	if err != nil || pr.Role != "primary" || pr.Epoch != 2 {
		t.Fatalf("promote: %+v, %v (want primary, epoch 2)", pr, err)
	}
	if pr2, err := fc.Promote(ctx); err != nil || pr2.Epoch != 2 {
		t.Fatalf("second promote: %+v, %v", pr2, err)
	}
	if follower.Following() {
		t.Fatal("still following after promote")
	}

	// The new primary accepts writes and expires what it inherited.
	d, err := follower.Submit(server.Submission{From: 0, To: 1, Volume: 1e9, Deadline: 100, MaxRate: 1e9})
	if err != nil || !d.Accepted {
		t.Fatalf("post-promote submit: %v %+v", err, d)
	}
	clk.advance(500 * time.Second)
	got, err := follower.Lookup(request.ID(ids[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got.State != server.StateExpired {
		t.Fatalf("inherited reservation state after τ = %q, want expired", got.State)
	}
	if err := follower.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestVoteRequiresDurableStore: a voter without a WAL would keep its vote
// only in memory, and a crash-restart could endorse a second candidate
// for the same epoch — so a WAL-less member must not vote at all.
func TestVoteRequiresDurableStore(t *testing.T) {
	cfg := uniformConfig(nil)
	cfg.Follow = "http://127.0.0.1:0"
	cfg.Epoch = 1
	s := newTestServer(t, cfg)
	resp := s.HandleVote(cluster.VoteRequest{Candidate: "b", NewEpoch: 2, Epoch: 1})
	if resp.Granted || !strings.Contains(resp.Reason, "durable") {
		t.Fatalf("WAL-less vote answer %+v, want denial citing the missing durable store", resp)
	}

	// The same request against a WAL-backed voter is granted.
	dcfg := uniformConfig(nil)
	dcfg.WAL = openTestWAL(t)
	dcfg.Follow = "http://127.0.0.1:0"
	dcfg.Epoch = 1
	durable := newTestServer(t, dcfg)
	if resp := durable.HandleVote(cluster.VoteRequest{Candidate: "b", NewEpoch: 2, Epoch: 1}); !resp.Granted {
		t.Fatalf("durable voter denied: %+v", resp)
	}
}

// TestSyncAckDurabilityOnTheWire pins down two sync-ack contracts at the
// HTTP layer. First, a pull presenting a cursor past the WAL frontier is
// not a durability ack — recording it would let one rogue (or buggy)
// caller forward-run the ack table and silently void every sync wait.
// Second, the sync wait's outcome is part of each answer: a durable
// submission that degrades at the deadline says "degraded" in its own
// result, and one whose acks arrived says "replicated" — the caller can
// tell, per request, whether the promised replication happened.
func TestSyncAckDurabilityOnTheWire(t *testing.T) {
	pcfg := uniformConfig(nil)
	pcfg.WAL = openTestWAL(t)
	pcfg.SyncMode = "one"
	pcfg.SyncTimeout = 500 * time.Millisecond
	primary := newTestServer(t, pcfg)
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	// A rogue caller acks a cursor far beyond anything the WAL has
	// written. If that entered the ack table, the sync wait below would
	// be satisfied instantly and falsely.
	if resp, err := ts.Client().Get(ts.URL + "/v1/replication/pull?seg=99&off=1048576&max=1&id=rogue"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	submitDurable := func() wire.ReservationJSON {
		t.Helper()
		body := `{"from":0,"to":1,"volume_bytes":1e9,"deadline_s":3600,"max_rate_bps":1e9,"durable":true}`
		resp, err := ts.Client().Post(ts.URL+"/v1/requests", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rj wire.ReservationJSON
		if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
			t.Fatal(err)
		}
		if !rj.Accepted {
			t.Fatalf("durable submit not accepted: %+v", rj)
		}
		return rj
	}

	// No follower is attached: the wait must lapse, and the degradation
	// must be visible in this result, not just a global counter.
	if rj := submitDurable(); rj.Durability != wire.DurabilityDegraded {
		t.Fatalf("durability with no follower = %q, want %q (rogue ack must not count)",
			rj.Durability, wire.DurabilityDegraded)
	}

	// Attach a real named follower; once its pull cursor covers the next
	// decision's frame the same call must answer "replicated".
	fcfg := uniformConfig(nil)
	fcfg.WAL = openTestWAL(t)
	fcfg.Follow = ts.URL
	fcfg.ReplID = "f1"
	follower := newTestServer(t, fcfg)
	if err := follower.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower catch-up", func() bool {
		return follower.ReplicationStatus().LagBytes == 0
	})
	if rj := submitDurable(); rj.Durability != wire.DurabilityReplicated {
		t.Fatalf("durability with an acking follower = %q, want %q",
			rj.Durability, wire.DurabilityReplicated)
	}

	// The batch endpoint carries the same per-result field.
	batch := `{"requests":[{"from":1,"to":0,"volume_bytes":1e9,"deadline_s":3600,"max_rate_bps":1e9,"durable":true}]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br wire.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || br.Results[0].Reservation == nil {
		t.Fatalf("batch response: %+v", br)
	}
	if got := br.Results[0].Reservation.Durability; got != wire.DurabilityReplicated {
		t.Fatalf("batch durability = %q, want %q", got, wire.DurabilityReplicated)
	}
}

// TestReplicationFencing exercises the epoch fence directly: batches from
// a lower epoch are refused, higher epochs are adopted, and out-of-order
// cursors are diagnosed as gaps.
func TestReplicationFencing(t *testing.T) {
	cfg := uniformConfig(nil)
	cfg.Follow = "http://127.0.0.1:0" // never started; ApplyShipped is driven directly
	cfg.Epoch = 5
	s := newTestServer(t, cfg)

	err := s.ApplyShipped(wire.ShippedBatch{Epoch: 3})
	var fenced *server.FencedError
	if !errors.As(err, &fenced) {
		t.Fatalf("low-epoch batch: err = %v, want FencedError", err)
	}
	if fenced.Batch != 3 || fenced.Current != 5 {
		t.Fatalf("fence = %+v", fenced)
	}

	// A higher epoch means a newer primary: adopt it.
	next := wal.Pos{Seg: 1, Off: 100}
	if err := s.ApplyShipped(wire.ShippedBatch{Epoch: 7, Next: next}); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 7 {
		t.Fatalf("epoch after adoption = %d, want 7", got)
	}

	// A batch that does not start at the cursor is a gap, not progress.
	err = s.ApplyShipped(wire.ShippedBatch{Epoch: 7, From: wal.Pos{Seg: 1, Off: 50}})
	if err == nil || !strings.Contains(err.Error(), "replication gap") {
		t.Fatalf("gap batch: err = %v, want replication gap", err)
	}

	// A primary refuses shipped batches outright.
	pcfg := uniformConfig(nil)
	p := newTestServer(t, pcfg)
	if err := p.ApplyShipped(wire.ShippedBatch{Epoch: 99}); !errors.Is(err, server.ErrNotFollower) {
		t.Fatalf("primary ApplyShipped err = %v, want ErrNotFollower", err)
	}
}

// TestApplyEventsIdempotent replays the same recovered history twice; the
// second pass must change nothing — that is what makes a rewound
// replication cursor (or a re-read WAL suffix) harmless.
func TestApplyEventsIdempotent(t *testing.T) {
	pcfg := uniformConfig(nil)
	pwal := openTestWAL(t)
	pcfg.WAL = pwal
	p := newTestServer(t, pcfg)
	var live server.Decision
	for i := 0; i < 2; i++ {
		d, err := p.Submit(server.Submission{From: 0, To: 1, Volume: 10e9, Deadline: 400, MaxRate: 100e6})
		if err != nil || !d.Accepted {
			t.Fatalf("submit: %v %+v", err, d)
		}
		if i == 0 {
			live = d
		} else if _, err := p.Cancel(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	events, _, err := server.ReadWALEvents(pwal, wal.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("recovered %d events, want 3", len(events))
	}

	s := newTestServer(t, uniformConfig(nil))
	for pass := 1; pass <= 2; pass++ {
		if n, err := s.ApplyEvents(events); err != nil || n != len(events) {
			t.Fatalf("pass %d: applied %d, %v", pass, n, err)
		}
		st := s.Status()
		if st.Active != 1 || st.Stats.Accepted != 2 || st.Stats.Cancelled != 1 {
			t.Fatalf("pass %d: active %d, accepted %d, cancelled %d",
				pass, st.Active, st.Stats.Accepted, st.Stats.Cancelled)
		}
		for _, pt := range st.Points {
			if pt.Used > units.Bandwidth(float64(live.Rate)*(1+units.Eps)) {
				t.Fatalf("pass %d: %s %d double-booked: used %v", pass, pt.Dir, pt.Point, pt.Used)
			}
		}
	}
	if err := s.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyEventsReportsTheCapacityRefusalInFull: the admission path
// throws a refusal's text away, but a log that does not fit the platform
// (a replica configured with less capacity than its primary) must say
// which point, which span and by how much — and stay matchable.
func TestApplyEventsReportsTheCapacityRefusalInFull(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	accept := func(id int, rate float64) trace.Event {
		return trace.Event{Kind: trace.EventAccept, Request: id, Ingress: 1, Egress: 0,
			RateBps: rate, SigmaS: 10, TauS: 20, VolumeB: rate * 10, MaxRateBps: 1e9}
	}
	n, err := s.ApplyEvents([]trace.Event{accept(0, 8e8), accept(1, 6e8)})
	if n != 1 || !errors.Is(err, alloc.ErrOverCapacity) {
		t.Fatalf("applied %d, %v; want 1 and an over-capacity refusal", n, err)
	}
	want := "server: apply: alloc: ingress 1: alloc: reserving 600MB/s on [10s, 20s) exceeds capacity 1GB/s (used 800MB/s)"
	if err.Error() != want {
		t.Fatalf("refusal text %q, want %q", err, want)
	}
}
