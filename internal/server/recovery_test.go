package server_test

import (
	"reflect"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// TestRecoveryRoutesAgree pins the one recovery path: a single recorded
// history reaches state four ways — the final snapshot alone, a fresh
// server plus the whole WAL, a mid-history snapshot plus the WAL suffix,
// and a follower re-seeded from the mid-history snapshot plus the shipped
// suffix — and all four must agree with the donor that recorded it, now
// and at every later instant its timers matter.
//
// The history covers every event kind recovery replays: flexible and
// book-ahead accepts, a reject, a cancel, an expiry, an idempotent re-send,
// and holds left held, confirmed (across the mid snapshot), aborted and
// aborted before they were ever reserved.
//
// The policy is an input: under minbw a grant's τ is the submission's
// deadline, which is what used to hide a replayed reservation recording a
// different window than the live one. Under f=0.8 and f=1 the two differ.
func TestRecoveryRoutesAgree(t *testing.T) {
	for _, policy := range []string{"minbw", "f=0.8", "f=1"} {
		t.Run(policy, func(t *testing.T) { recoveryRoutesAgree(t, policy) })
	}
}

func recoveryRoutesAgree(t *testing.T, policy string) {
	clk := &fakeClock{}
	config := func() server.Config {
		cfg := uniformConfig(clk)
		cfg.Policy = policy
		return cfg
	}
	dcfg := config()
	dwal := openTestWAL(t)
	dcfg.WAL = dwal
	donor := newTestServer(t, dcfg)

	submit := func(sub server.Submission, wantAccept bool) server.Decision {
		t.Helper()
		d, err := donor.Submit(sub)
		if err != nil || d.Accepted != wantAccept {
			t.Fatalf("submit %+v: %v %+v, want accepted=%v", sub, err, d, wantAccept)
		}
		return d
	}
	// Rates are sized so that everything below fits whichever rate the
	// policy picks between MinRate and MaxRate.
	holdRequest := func(key string) server.HoldReserveJSON {
		return server.HoldReserveJSON{
			Hold: key, Side: trace.HoldSideIngress, Point: 0, PeerPoint: 1,
			TTLS: 5, RelTimes: true, VolumeBytes: 1e11, MaxRateBps: 1e8, DeadlineS: 2000,
		}
	}
	reserve := func(key string) {
		t.Helper()
		r, err := reserve1(donor, holdRequest(key))
		if err != nil || !r.Held {
			t.Fatalf("reserve %s: %v %+v", key, err, r)
		}
	}

	keyed := server.Submission{
		From: 0, To: 1, Volume: 100 * units.GB, Deadline: 400, MaxRate: 500 * units.MBps,
		IdempotencyKey: "carried-key",
	}
	first := submit(keyed, true)
	submit(server.Submission{From: 1, To: 0, Volume: 100 * units.GB, NotBefore: 1000, Deadline: 1100, MaxRate: 1 * units.GBps}, true)
	submit(server.Submission{From: 0, To: 1, Volume: 1 * units.TB, Deadline: 10, MaxRate: 1 * units.GBps}, false)
	cancelled := submit(server.Submission{From: 1, To: 1, Volume: 1 * units.GB, Deadline: 500, MaxRate: 100 * units.MBps}, true)
	if _, err := donor.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}
	submit(server.Submission{From: 1, To: 1, Volume: 1 * units.GB, Deadline: 10, MaxRate: 200 * units.MBps}, true) // expires by 10
	reserve("h-confirmed")
	mid := donor.Snapshot()

	if st, err := confirm1(donor, "h-confirmed", 0); err != nil || st.State != "confirmed" {
		t.Fatalf("confirm: %v %+v", err, st)
	}
	clk.advance(20 * time.Second)
	if again := submit(keyed, true); again.ID != first.ID {
		t.Fatalf("donor re-send booked %d, want the original %d", again.ID, first.ID)
	}
	reserve("h-held")
	reserve("h-aborted")
	if st, err := abort1(donor, "h-aborted"); err != nil || !st.Released {
		t.Fatalf("abort: %v %+v", err, st)
	}
	if st, err := abort1(donor, "h-never-reserved"); err != nil || st.Released || st.State != "aborted" {
		t.Fatalf("abort before reserve: %v %+v", err, st)
	}
	final := donor.Snapshot()
	if sd := final.IdempotencyDecisions["carried-key"]; sd.ID != int(first.ID) || !sd.Accepted {
		t.Fatalf("snapshot idempotency decision = %+v, want accepted id %d", sd, first.ID)
	}

	all, end, err := server.ReadWALEvents(dwal, wal.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	suffix, _, err := server.ReadWALEvents(dwal, mid.WALPos())
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]bool)
	for _, ev := range all {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{trace.EventAccept, trace.EventReject, trace.EventCancel, trace.EventExpire,
		trace.EventHoldReserve, trace.EventHoldConfirm, trace.EventHoldAbort} {
		if !kinds[k] {
			t.Fatalf("recorded history has no %s event", k)
		}
	}

	restore := func(snap *server.Snapshot) *server.Server {
		t.Helper()
		s, err := server.NewFromSnapshot(snap, server.Config{Clock: clk.now})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	apply := func(s *server.Server, events []trace.Event) {
		t.Helper()
		if n, err := s.ApplyEvents(events); err != nil || n != len(events) {
			t.Fatalf("applied %d of %d events: %v", n, len(events), err)
		}
	}

	fromSnapshot := restore(final)
	fromWAL := newTestServer(t, config())
	apply(fromWAL, all)
	fromMid := restore(mid)
	apply(fromMid, suffix)
	fcfg := config()
	fcfg.WAL = openTestWAL(t)
	fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	reseeded := newTestServer(t, fcfg)
	if err := reseeded.Reseed(mid); err != nil {
		t.Fatal(err)
	}
	if cur := reseeded.ReplicationStatus().Cursor; cur != mid.WALPos() {
		t.Fatalf("cursor after reseed = %v, want the snapshot frontier %v", cur, mid.WALPos())
	}
	if err := reseeded.ApplyShipped(server.ShippedBatch{
		Epoch: donor.Epoch(), From: mid.WALPos(), Next: end, End: end, Events: frames(t, suffix...),
	}); err != nil {
		t.Fatal(err)
	}

	routes := []struct {
		name string
		s    *server.Server
		keys bool // the route carries idempotency keys (snapshots do, WAL events do not)
		// The route carries the tombstone of the hold aborted before its
		// reserve: the events that recorded it do, a snapshot taken after it
		// does not (snapHold persists only holds that book capacity).
		tombstone bool
	}{
		{"snapshot", fromSnapshot, true, false},
		{"full WAL", fromWAL, false, true},
		{"mid snapshot + WAL suffix", fromMid, true, true},
		{"reseed + shipped suffix", reseeded, true, true},
	}
	agree := func(when string) {
		t.Helper()
		want, wantPoints := donor.Snapshot(), donor.Status().Points
		for _, r := range routes {
			got := r.s.Snapshot()
			if !reflect.DeepEqual(got.Live, want.Live) {
				t.Errorf("%s, %s: live set\n got %+v\nwant %+v", when, r.name, got.Live, want.Live)
			}
			if !reflect.DeepEqual(got.Holds, want.Holds) {
				t.Errorf("%s, %s: holds\n got %+v\nwant %+v", when, r.name, got.Holds, want.Holds)
			}
			if got.NextID != want.NextID {
				t.Errorf("%s, %s: next id %d, want %d", when, r.name, got.NextID, want.NextID)
			}
			if points := r.s.Status().Points; !reflect.DeepEqual(points, wantPoints) {
				t.Errorf("%s, %s: usage\n got %+v\nwant %+v", when, r.name, points, wantPoints)
			}
			if err := r.s.VerifyInvariant(); err != nil {
				t.Errorf("%s, %s: %v", when, r.name, err)
			}
		}
	}

	agree("at the end of the history")
	if len(final.Live) != 2 || len(final.Holds) != 2 {
		t.Fatalf("history left %d live reservations and %d holds, want 2 and 2", len(final.Live), len(final.Holds))
	}

	// The re-sent key answers the original reservation on every route that
	// carries keys, without booking again.
	if _, err := reseeded.Promote(); err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		if !r.keys {
			continue
		}
		accepted := r.s.Status().Stats.Accepted
		again, err := r.s.Submit(keyed)
		if err != nil || again.ID != first.ID {
			t.Errorf("%s: re-sent key answered id %d (%v), want the original %d", r.name, again.ID, err, first.ID)
		}
		if st := r.s.Status(); st.Stats.Accepted != accepted || st.Stats.IdempotentHits == 0 {
			t.Errorf("%s: re-send moved accepted %d -> %d with %d idempotent hits",
				r.name, accepted, st.Stats.Accepted, st.Stats.IdempotentHits)
		}
	}

	// A RESERVE arriving late for the pair that was aborted first gets the
	// donor's refusal, reason included, and books nothing — field for field,
	// but for the epoch, which is each lineage's own.
	want, err := reserve1(donor, holdRequest("h-never-reserved"))
	if err != nil || want.Held || want.Reason != "aborted before reserve" {
		t.Fatalf("donor's late reserve: %v %+v", err, want)
	}
	for _, r := range routes {
		if !r.tombstone {
			continue
		}
		got, err := reserve1(r.s, holdRequest("h-never-reserved"))
		want.Epoch = r.s.Epoch()
		if err != nil || got != want {
			t.Errorf("%s: late reserve of the aborted pair\n got %+v (%v)\nwant %+v", r.name, got, err, want)
		}
	}

	// Every route armed the same timers: the held hold rolls back at its TTL
	// (25), the flexible transfer expires at its τ (400 at the latest), the
	// booking turns active at 1000 and ends at 1100, the confirmed hold
	// releases at its τ (2000 at the latest).
	for _, at := range []time.Duration{30, 450, 1050, 2100} {
		clk.advance(at*time.Second - time.Duration(clk.ns.Load()))
		agree("at t=" + (at * time.Second).String())
	}
	if st := donor.Status(); st.Booked+st.Active != 0 {
		t.Fatalf("donor still holds %d reservations at the end of time", st.Booked+st.Active)
	}
	for _, r := range routes {
		if held, confirmed := r.s.HoldStats(); held+confirmed != 0 {
			t.Errorf("%s: %d held / %d confirmed holds outlived their timers", r.name, held, confirmed)
		}
	}
}
