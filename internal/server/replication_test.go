package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
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
	s := newTestServer(t, cfg)
	resp := s.HandleVote(cluster.VoteRequest{Candidate: "b", NewEpoch: 2, Epoch: 1})
	if resp.Granted || !strings.Contains(resp.Reason, "durable") {
		t.Fatalf("WAL-less vote answer %+v, want denial citing the missing durable store", resp)
	}

	// The same request against a WAL-backed voter is granted.
	dcfg := uniformConfig(nil)
	dcfg.WAL = openTestWAL(t)
	dcfg.Follow = "http://127.0.0.1:0"
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
	cfg.WAL = openTestWAL(t)
	if err := cfg.WAL.SaveEpoch(5); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, cfg)

	err := s.ApplyShipped(cluster.ShippedBatch{Epoch: 3})
	var fenced *server.FencedError
	if !errors.As(err, &fenced) {
		t.Fatalf("low-epoch batch: err = %v, want FencedError", err)
	}
	if fenced.Batch != 3 || fenced.Current != 5 {
		t.Fatalf("fence = %+v", fenced)
	}

	// A higher epoch means a newer primary: adopt it.
	next := wal.Pos{Seg: 1, Off: 100}
	if err := s.ApplyShipped(cluster.ShippedBatch{Epoch: 7, Next: next}); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 7 {
		t.Fatalf("epoch after adoption = %d, want 7", got)
	}

	// A batch that does not start at the cursor is a gap, not progress.
	err = s.ApplyShipped(cluster.ShippedBatch{Epoch: 7, From: wal.Pos{Seg: 1, Off: 50}})
	if err == nil || !strings.Contains(err.Error(), "replication gap") {
		t.Fatalf("gap batch: err = %v, want replication gap", err)
	}

	// A primary refuses shipped batches outright.
	pcfg := uniformConfig(nil)
	p := newTestServer(t, pcfg)
	if err := p.ApplyShipped(cluster.ShippedBatch{Epoch: 99}); !errors.Is(err, server.ErrNotFollower) {
		t.Fatalf("primary ApplyShipped err = %v, want ErrNotFollower", err)
	}
}

// TestFollowerRefusesANegativeLag: a batch that reports a negative lag is
// corrupt, and the watchdog's promote gate would pass it however far behind
// the follower runs, so it is refused whole: no event applied, no epoch
// adopted, the cursor and the reported lag where they were.
func TestFollowerRefusesANegativeLag(t *testing.T) {
	cfg := uniformConfig(nil)
	cfg.Follow = "http://127.0.0.1:0" // never started; ApplyShipped is driven directly
	s := newTestServer(t, cfg)
	next := wal.Pos{Seg: 1, Off: 100}
	if err := s.ApplyShipped(cluster.ShippedBatch{Epoch: 1, Next: next, LagBytes: 7}); err != nil {
		t.Fatal(err)
	}
	err := s.ApplyShipped(cluster.ShippedBatch{Epoch: 2, From: next, Next: wal.Pos{Seg: 1, Off: 200}, LagBytes: -1,
		Events: frames(t, trace.Event{Kind: trace.EventAccept, Request: 0, Ingress: 0, Egress: 1,
			RateBps: 1e8, TauS: 100, VolumeB: 1e10, MaxRateBps: 1e9})})
	rs, active := s.ReplicationStatus(), s.Status().Active
	if err == nil || rs.LagBytes != 7 || rs.Applied != 0 || active != 0 || rs.Cursor != next || rs.Epoch != 1 {
		t.Fatalf("batch with lag -1: err %v; lag %d, %d applied, %d active, cursor %v, epoch %d; want refused, 7, 0, 0, %v, 1",
			err, rs.LagBytes, rs.Applied, active, rs.Cursor, rs.Epoch, next)
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

// TestFollowerArmsNoTimerUntilPromoted: a follower's state is retired by
// its primary's shipped events alone. A replayed grant and a replayed hold
// whose instants have passed stay booked on a follower, which logs nothing
// of its own, until Promote arms their timers and they fire.
func TestFollowerArmsNoTimerUntilPromoted(t *testing.T) {
	clk := &fakeClock{}
	sink := &eventSink{}
	cfg := uniformConfig(clk)
	cfg.Follow, cfg.Decisions = "http://127.0.0.1:1", sink
	f := newTestServer(t, cfg)
	if _, err := f.ApplyEvents([]trace.Event{
		{Kind: trace.EventAccept, Request: 0, Ingress: 0, Egress: 1, RateBps: 1e9, TauS: 10, VolumeB: 1e10, MaxRateBps: 1e9},
		{Kind: trace.EventHoldReserve, Request: 1, Ingress: 1, Egress: 0, RateBps: 1e9, TauS: 10, VolumeB: 1e10, MaxRateBps: 1e9,
			ExpireS: 5, Hold: "h", Side: trace.HoldSideIngress},
	}); err != nil {
		t.Fatal(err)
	}
	clk.advance(20 * time.Second)
	if live, held := len(f.LiveReservations()), first(f.HoldStats()); live != 1 || held != 1 || len(sink.Events()) != 0 {
		t.Fatalf("follower past τ and the TTL: %d live, %d held, logged %+v; want both booked and nothing logged", live, held, sink.Events())
	}
	if _, err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Millisecond) // the timers of instants past fire on the next advance
	if live, held := len(f.LiveReservations()), first(f.HoldStats()); live != 0 || held != 0 {
		t.Fatalf("after promotion: %d live, %d held; want the armed timers fired", live, held)
	}
	var kinds []string
	for _, ev := range sink.Events() {
		kinds = append(kinds, ev.Kind)
	}
	if want := []string{trace.EventPromote, trace.EventExpire, trace.EventHoldExpire}; strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Fatalf("logged %v, want %v", kinds, want)
	}
}

func first(a, _ int) int { return a }

// TestFarEventAnchorsTheClockInRange: replay refuses a record stamped at or
// past half of what a time.Duration holds (~4.6e9 s), where the service
// clock, anchored there, would soon have no range left to run in. The
// refused record applies nothing and leaves the clock where it stood; an
// in-range record after it still applies and anchors the clock, which runs
// on from there. Replay used to take a record at 1e10 s and pin the clock
// at the end of the range, where it stopped 0.85 s later.
func TestFarEventAnchorsTheClockInRange(t *testing.T) {
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.Follow = "http://127.0.0.1:1"
	f := newTestServer(t, cfg)
	accept := func(at float64) trace.Event {
		return trace.Event{At: at, Kind: trace.EventAccept, Request: 0, Ingress: 0, Egress: 1,
			RateBps: 1e9, SigmaS: at, TauS: at + 10, VolumeB: 1e10, MaxRateBps: 1e9}
	}
	for _, at := range []float64{1e10, float64(math.MaxInt64/2) / 1e9} {
		if n, err := f.ApplyEvents([]trace.Event{accept(at)}); n != 0 || err == nil {
			t.Fatalf("an event at %g s: applied %d, %v; want it refused", at, n, err)
		}
		if now, live := f.Now(), len(f.LiveReservations()); now != 0 || live != 0 {
			t.Fatalf("after the refusal at %g s: clock %v, %d live; want 0 and none", at, float64(now), live)
		}
	}
	if n, err := f.ApplyEvents([]trace.Event{accept(1000)}); n != 1 || err != nil {
		t.Fatalf("an event at 1000 s: applied %d, %v", n, err)
	}
	if now := f.Now(); now != 1000 {
		t.Fatalf("clock after an event at 1000 s = %v, want 1000", float64(now))
	}
	clk.advance(500 * time.Millisecond)
	if now := f.Now(); now != 1000.5 {
		t.Fatalf("clock 500ms later = %v, want 1000.5", float64(now))
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
