package server_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/hold"
	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// TestRecoveryRoutesAgree pins the one recovery path: a single recorded
// history reaches state four ways — the final checkpoint alone, a fresh
// server plus the whole WAL, a mid-history checkpoint plus the WAL suffix,
// and a follower re-seeded over the replication stream (the gone frame,
// the mid-history checkpoint) plus the suffix shipped on after it — and
// all four must agree with the donor that recorded it, now and at every
// later instant its timers matter. Every checkpoint is installed from its
// bytes.
//
// The history covers every event kind recovery replays: flexible and
// book-ahead accepts, a reject, a cancel, an expiry, an idempotent re-send,
// and holds left held, confirmed (across the mid snapshot), aborted and
// aborted before they were ever reserved. A keyed submission and a cancel
// on each side of the mid snapshot check that every route carries the
// idempotency keys and the finished reservations, not only the live ones.
//
// The policy is an input: under minbw a grant's τ is the submission's
// deadline, which is what used to hide a replayed reservation recording a
// different window than the live one. Under f=0.8 and f=1 the two differ.
func TestRecoveryRoutesAgree(t *testing.T) {
	for _, policy := range []string{"minbw", "f=0.8", "f=1"} {
		t.Run(policy, func(t *testing.T) { recoveryRoutesAgree(t, policy) })
	}
}

// recoveryHistory is the history TestRecoveryRoutesAgree recovers: the donor
// that recorded it with its WAL, the snapshots taken halfway and at the end,
// and the decisions every route must answer for.
type recoveryHistory struct {
	donor                  *server.Server
	wal                    *wal.Log
	mid, final             *server.Snapshot
	keyed, lateKeyed       server.Submission
	first, late, cancelled server.Decision
}

// recoveryHold is the hold request of the history. Rates are sized so that
// everything recorded fits whichever rate the policy picks between MinRate
// and MaxRate.
func recoveryHold(key string) wire.HoldReserveJSON {
	return wire.HoldReserveJSON{
		Hold: key, Side: trace.HoldSideIngress, Point: 0, PeerPoint: 1,
		TTLS: 5, RelTimes: true, VolumeBytes: 1e11, MaxRateBps: 1e8, DeadlineS: 2000,
	}
}

// recordRecoveryHistory drives a donor configured by cfg (plus a WAL of its
// own) on clk through the history.
func recordRecoveryHistory(t testing.TB, clk *fakeClock, cfg server.Config) recoveryHistory {
	t.Helper()
	h := recoveryHistory{wal: openTestWAL(t)}
	cfg.WAL = h.wal
	donor := newTestServer(t, cfg)
	h.donor = donor

	submit := func(sub server.Submission, wantAccept bool) server.Decision {
		t.Helper()
		d, err := donor.Submit(sub)
		if err != nil || d.Accepted != wantAccept {
			t.Fatalf("submit %+v: %v %+v, want accepted=%v", sub, err, d, wantAccept)
		}
		return d
	}
	reserve := func(key string) {
		t.Helper()
		r, err := reserve1(donor, recoveryHold(key))
		if err != nil || !r.Held {
			t.Fatalf("reserve %s: %v %+v", key, err, r)
		}
	}

	h.keyed = server.Submission{
		From: 0, To: 1, Volume: 100 * units.GB, Deadline: 400, MaxRate: 500 * units.MBps,
		IdempotencyKey: "carried-key",
	}
	h.first = submit(h.keyed, true)
	submit(server.Submission{From: 1, To: 0, Volume: 100 * units.GB, NotBefore: 1000, Deadline: 1100, MaxRate: 1 * units.GBps}, true)
	submit(server.Submission{From: 0, To: 1, Volume: 1 * units.TB, Deadline: 10, MaxRate: 1 * units.GBps}, false)
	h.cancelled = submit(server.Submission{From: 1, To: 1, Volume: 1 * units.GB, Deadline: 500, MaxRate: 100 * units.MBps}, true)
	if _, err := donor.Cancel(h.cancelled.ID); err != nil {
		t.Fatal(err)
	}
	submit(server.Submission{From: 1, To: 1, Volume: 1 * units.GB, Deadline: 10, MaxRate: 200 * units.MBps}, true) // expires by 10
	reserve("h-confirmed")
	h.mid = donor.Snapshot()

	if st, err := confirm1(donor, "h-confirmed", 0); err != nil || st.State != "confirmed" {
		t.Fatalf("confirm: %v %+v", err, st)
	}
	h.lateKeyed = server.Submission{
		From: 1, To: 1, Volume: 10 * units.GB, Deadline: 600, MaxRate: 100 * units.MBps,
		IdempotencyKey: "late-key",
	}
	h.late = submit(h.lateKeyed, true)
	if _, err := donor.Cancel(h.late.ID); err != nil {
		t.Fatal(err)
	}
	clk.advance(20 * time.Second)
	if again := submit(h.keyed, true); again.ID != h.first.ID {
		t.Fatalf("donor re-send booked %d, want the original %d", again.ID, h.first.ID)
	}
	reserve("h-held")
	reserve("h-aborted")
	if st, err := abort1(donor, "h-aborted"); err != nil || !st.Released {
		t.Fatalf("abort: %v %+v", err, st)
	}
	if st, err := abort1(donor, "h-never-reserved"); err != nil || st.Released || st.State != "aborted" {
		t.Fatalf("abort before reserve: %v %+v", err, st)
	}
	h.final = donor.Snapshot()
	return h
}

func recoveryRoutesAgree(t *testing.T, policy string) {
	clk := &fakeClock{}
	config := func() server.Config {
		cfg := uniformConfig(clk)
		cfg.Policy = policy
		return cfg
	}
	h := recordRecoveryHistory(t, clk, config())
	donor, dwal, mid, final := h.donor, h.wal, h.mid, h.final
	if keys := snapKeys(final); keys["carried-key"] != int(h.first.ID) || keys["late-key"] != int(h.late.ID) {
		t.Fatalf("snapshot accepts carry keys %v, want carried-key on %d and late-key on %d", keys, h.first.ID, h.late.ID)
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
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		read, err := server.ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.NewFromSnapshot(read, server.Config{Clock: clk.now})
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
	stream, err := server.AppendReplReseed(nil, mid)
	if err != nil {
		t.Fatal(err)
	}
	stream = cluster.AppendReplBatch(stream, &cluster.ShippedBatch{
		Epoch: donor.Epoch(), From: mid.WALPos(), Next: end, End: end, Events: frames(t, suffix...),
	})
	var acks bytes.Buffer
	if err := reseeded.FollowStream(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(stream), &acks}); !errors.Is(err, io.EOF) {
		t.Fatalf("stream ended with %v, want EOF after the suffix", err)
	}
	wantAcks := append(cluster.AppendPos(nil, mid.WALPos()), cluster.AppendPos(nil, end)...)
	if !bytes.Equal(acks.Bytes(), wantAcks) {
		t.Fatalf("follower acked %x, want the checkpoint's frontier %v then %v", acks.Bytes(), mid.WALPos(), end)
	}
	if st := reseeded.Status(); st.Stats.Reseeds != 1 || reseeded.ReplicationStatus().Cursor != end {
		t.Fatalf("after the stream: %d reseeds, cursor %v; want 1 and %v", st.Stats.Reseeds, reseeded.ReplicationStatus().Cursor, end)
	}

	routes := []struct {
		name string
		s    *server.Server
	}{
		{"checkpoint", fromSnapshot},
		{"full WAL", fromWAL},
		{"mid checkpoint + WAL suffix", fromMid},
		{"reseed over the stream + shipped suffix", reseeded},
	}
	agree := func(when string) {
		t.Helper()
		want, wantPoints := donor.Snapshot(), donor.Status().Points
		for _, r := range routes {
			got := r.s.Snapshot()
			if !reflect.DeepEqual(got.Events, want.Events) {
				t.Errorf("%s, %s: state\n got %+v\nwant %+v", when, r.name, got.Events, want.Events)
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
	held, confirmed := donor.HoldStats()
	if live := len(donor.LiveReservations()); live != 2 || held != 1 || confirmed != 1 {
		t.Fatalf("history left %d live reservations and %d/%d held/confirmed holds, want 2 and 1/1", live, held, confirmed)
	}
	_, retired := donor.HoldRows()
	tombstones := 0
	for _, e := range retired {
		if e.State == hold.Aborted {
			tombstones++
		}
	}
	if tombstones != 2 {
		t.Fatalf("history left %d hold tombstones, want 2 (h-aborted, h-never-reserved)", tombstones)
	}
	// Every route files the keys in the donor's order, so a full cache
	// evicts the same key next on each.
	wantOrder := []string{h.keyed.IdempotencyKey, h.lateKeyed.IdempotencyKey}
	if got := donor.IdemOrder(); !reflect.DeepEqual(got, wantOrder) {
		t.Fatalf("donor files keys %v, want %v", got, wantOrder)
	}
	for _, r := range routes {
		if got := r.s.IdemOrder(); !reflect.DeepEqual(got, wantOrder) {
			t.Errorf("%s: keys filed in order %v, want the donor's %v", r.name, got, wantOrder)
		}
	}

	// Every route answers both re-sent keys with the original reservation,
	// without booking again, counting one idempotent hit each, and still
	// knows both cancelled reservations.
	if _, err := reseeded.Promote(); err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		for _, resend := range []struct {
			sub  server.Submission
			want request.ID
		}{{h.keyed, h.first.ID}, {h.lateKeyed, h.late.ID}} {
			before := r.s.Status().Stats
			again, err := r.s.Submit(resend.sub)
			if err != nil || again.ID != resend.want {
				t.Errorf("%s: re-sent %s answered id %d (%v), want the original %d",
					r.name, resend.sub.IdempotencyKey, again.ID, err, resend.want)
			}
			if after := r.s.Status().Stats; after.Accepted != before.Accepted || after.IdempotentHits != before.IdempotentHits+1 {
				t.Errorf("%s: re-sent %s moved accepted %d -> %d and idempotent hits %d -> %d, want accepted unmoved and one hit",
					r.name, resend.sub.IdempotencyKey, before.Accepted, after.Accepted, before.IdempotentHits, after.IdempotentHits)
			}
		}
		for _, id := range []request.ID{h.cancelled.ID, h.late.ID} {
			if d, err := r.s.Lookup(id); err != nil || d.State != server.StateCancelled {
				t.Errorf("%s: lookup of cancelled %d = %+v (%v), want cancelled", r.name, id, d, err)
			}
		}
	}

	// A RESERVE arriving late for the pair that was aborted first gets the
	// donor's refusal, reason included, and books nothing — field for field,
	// but for the epoch, which is each lineage's own. Every route carries
	// the tombstone: the events that recorded it, in the WAL or in the
	// snapshot taken after it.
	want, err := reserve1(donor, recoveryHold("h-never-reserved"))
	if err != nil || want.Held || want.Reason != "aborted before reserve" {
		t.Fatalf("donor's late reserve: %v %+v", err, want)
	}
	for _, r := range routes {
		got, err := reserve1(r.s, recoveryHold("h-never-reserved"))
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

// tamperedSnapshots derives from snap, a snapshot with a cancel and a live
// booking that starts after now_s, three copies that each give capacity back
// ahead of the clock or route an accept through no point, with the names of
// the tampering. Installed, the first two would move a point's floor past
// now_s and refuse every admission there until the clock caught up.
func tamperedSnapshots(t testing.TB, snap *server.Snapshot) map[string]*server.Snapshot {
	t.Helper()
	edit := func(change func(events []trace.Event) []trace.Event) *server.Snapshot {
		c := *snap
		c.Events = change(append([]trace.Event(nil), snap.Events...))
		return &c
	}
	find := func(events []trace.Event, match func(trace.Event) bool) int {
		for i, ev := range events {
			if match(ev) {
				return i
			}
		}
		t.Fatalf("snapshot has no event to tamper with")
		return -1
	}
	isBookedAhead := func(ev trace.Event) bool {
		return ev.Kind == trace.EventAccept && ev.Ingress >= 0 && ev.SigmaS > snap.NowS
	}
	return map[string]*server.Snapshot{
		"cancel stamped after now_s": edit(func(events []trace.Event) []trace.Event {
			i := find(events, func(ev trace.Event) bool { return ev.Kind == trace.EventCancel })
			events[i].At = snap.NowS + 1000
			return events
		}),
		"expiry of a booking still ahead": edit(func(events []trace.Event) []trace.Event {
			i := find(events, isBookedAhead)
			expire := events[i]
			expire.Kind = trace.EventExpire
			return slices.Insert(events, i+1, expire)
		}),
		"booking routed through no point": edit(func(events []trace.Event) []trace.Event {
			i := find(events, isBookedAhead)
			events[i].Ingress, events[i].Egress = -1, -1
			events[i].Key = ""
			return events
		}),
	}
}

// TestRestoreRefusesCapacityGivenBackAhead: the installer refuses a snapshot
// that would make a point forget bookings ahead of the clock — an event not
// stamped now_s, or an expiry at a τ still to come — and one that drops a
// booking by stripping its route. A WAL or shipped accept without a route is
// refused on every route: only a snapshot files a key that way.
func TestRestoreRefusesCapacityGivenBackAhead(t *testing.T) {
	clk := &fakeClock{}
	h := recordRecoveryHistory(t, clk, uniformConfig(clk))
	if _, err := server.NewFromSnapshot(h.final, server.Config{Clock: clk.now}); err != nil {
		t.Fatalf("untampered snapshot: %v", err)
	}
	for name, snap := range tamperedSnapshots(t, h.final) {
		if s, err := server.NewFromSnapshot(snap, server.Config{Clock: clk.now}); err == nil {
			s.Close()
			t.Errorf("%s: installed", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	unrouted := trace.Event{Kind: trace.EventAccept, Request: 0, Ingress: -1, Egress: -1,
		RateBps: 1e8, SigmaS: 0, TauS: 10, VolumeB: 1e9, MaxRateBps: 1e8, Key: "k"}
	fresh := newTestServer(t, uniformConfig(clk))
	if n, err := fresh.ApplyEvents([]trace.Event{unrouted}); err == nil || n != 0 {
		t.Errorf("replay applied %d unrouted accepts (%v), want it refused", n, err)
	}
}

// FuzzSnapshotInstall: a re-seed installs a checkpoint a peer streamed, and
// a boot one read off disk, so the installer reads outside input. Over
// arbitrary bytes ReadSnapshot and NewFromSnapshot never panic, and a
// checkpoint they accept installs a state that passes the invariant audit,
// with every event of the input and of the installed state's own snapshot
// below next_id and no point's floor past now_s. The seeds are the
// checkpoint bytes of TestRecoveryRoutesAgree's mid and final snapshots and
// of the tampered copies TestRestoreRefusesCapacityGivenBackAhead refuses.
func FuzzSnapshotInstall(f *testing.F) {
	for _, policy := range []string{"minbw", "f=1"} {
		clk := &fakeClock{}
		cfg := uniformConfig(clk)
		cfg.Policy = policy
		h := recordRecoveryHistory(f, clk, cfg)
		seeds := []*server.Snapshot{h.mid, h.final}
		for _, snap := range tamperedSnapshots(f, h.final) {
			seeds = append(seeds, snap)
		}
		for _, snap := range seeds {
			var buf bytes.Buffer
			if err := snap.Write(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	clk := &fakeClock{}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := server.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := server.NewFromSnapshot(snap, server.Config{Clock: clk.now})
		if err != nil {
			return
		}
		defer s.Close()
		if err := s.VerifyInvariant(); err != nil {
			t.Fatalf("installed state fails the audit: %v", err)
		}
		for i, floor := range s.LedgerFloors() {
			if floor > snap.NowS {
				t.Fatalf("point %d forgot its bookings up to %g, past now_s %g", i, floor, snap.NowS)
			}
		}
		for _, sn := range []*server.Snapshot{snap, s.Snapshot()} {
			for _, ev := range sn.Events {
				if ev.Request >= sn.NextID {
					t.Fatalf("installed %s of request %d, not below next_id %d", ev.Kind, ev.Request, sn.NextID)
				}
			}
		}
	})
}

// snapKeys maps each idempotency key a snapshot's events carry to the
// request ID of the decision that carries it.
func snapKeys(snap *server.Snapshot) map[string]int {
	keys := make(map[string]int)
	for _, ev := range snap.Events {
		if ev.Key != "" {
			keys[ev.Key] = ev.Request
		}
	}
	return keys
}

// TestRawByteKeysSurviveRecovery: an idempotency key is raw bytes — the
// framed plane carries it unchecked — so every recovery route must give it
// back byte for byte: the whole WAL replayed onto a fresh server, the
// checkpoint, and a follower fed the primary's records over the stream.
// Each re-send then answers its original ID and books nothing. A JSON
// record wrote a key that is not UTF-8 as U+FFFD, so two such keys came
// back as one, and both re-sends were admitted again.
func TestRawByteKeysSurviveRecovery(t *testing.T) {
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.WAL = openTestWAL(t)
	donor := newTestServer(t, cfg)
	subs := []server.Submission{
		{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 400, MaxRate: 100 * units.MBps, IdempotencyKey: "\xff"},
		{From: 1, To: 0, Volume: 1 * units.GB, Deadline: 400, MaxRate: 100 * units.MBps, IdempotencyKey: "\xfe"},
	}
	ids := make([]request.ID, len(subs))
	for i, sub := range subs {
		d, err := donor.Submit(sub)
		if err != nil || !d.Accepted {
			t.Fatalf("submit %q: %v %+v", sub.IdempotencyKey, err, d)
		}
		ids[i] = d.ID
	}

	all, _, err := server.ReadWALEvents(cfg.WAL, wal.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	fromWAL := newTestServer(t, uniformConfig(clk))
	if n, err := fromWAL.ApplyEvents(all); err != nil || n != len(all) {
		t.Fatalf("applied %d of %d events: %v", n, len(all), err)
	}

	var buf bytes.Buffer
	if err := donor.Snapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := server.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromCheckpoint, err := server.NewFromSnapshot(read, server.Config{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fromCheckpoint.Close() })

	payloads, start, next, err := cfg.WAL.ReadFrom(wal.Pos{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := uniformConfig(clk)
	fcfg.WAL = openTestWAL(t)
	fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	follower := newTestServer(t, fcfg)
	stream := cluster.AppendReplBatch(nil, &cluster.ShippedBatch{Epoch: donor.Epoch(), From: start, Next: next, End: next, Events: payloads})
	if err := follower.FollowStream(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(stream), io.Discard}); !errors.Is(err, io.EOF) {
		t.Fatalf("stream ended with %v, want EOF after the batch", err)
	}
	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}

	for _, r := range []struct {
		name string
		s    *server.Server
	}{{"full WAL", fromWAL}, {"checkpoint", fromCheckpoint}, {"follower over the stream", follower}} {
		for i, sub := range subs {
			before := r.s.Status().Stats
			again, err := r.s.Submit(sub)
			if err != nil || again.ID != ids[i] {
				t.Errorf("%s: re-sent %q answered id %d (%v), want the original %d", r.name, sub.IdempotencyKey, again.ID, err, ids[i])
			}
			if after := r.s.Status().Stats; after.Accepted != before.Accepted {
				t.Errorf("%s: re-sent %q booked again: accepted %d -> %d", r.name, sub.IdempotencyKey, before.Accepted, after.Accepted)
			}
		}
	}
}

// TestNewBootsTheLogsHistory: New over a WAL directory boots the history it
// holds, so each life of a daemon goes on from the last one. A server used
// to start fresh over a log holding an accept: the second life booked
// nothing of it, answered the next accept with ID 0 again, and the third
// boot of that log was refused, reservation 0 having two grants.
func TestNewBootsTheLogsHistory(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{}
	life := func() (*server.Server, func()) {
		t.Helper()
		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := uniformConfig(clk)
		cfg.WAL = l
		s, err := server.New(cfg)
		if err != nil {
			l.Close()
			t.Fatal(err)
		}
		return s, func() { s.Close(); l.Close() }
	}
	accept := func(s *server.Server, from, to int) server.Decision {
		t.Helper()
		d, err := s.Submit(server.Submission{From: from, To: to, Volume: 100 * units.GB, Deadline: 4000, MaxRate: 500 * units.MBps})
		if err != nil || !d.Accepted {
			t.Fatalf("submit %d->%d: %v %+v", from, to, err, d)
		}
		return d
	}
	holds := func(s *server.Server, want ...server.Decision) {
		t.Helper()
		live := s.LiveReservations()
		if len(live) != len(want) {
			t.Fatalf("%d live reservations, want %d", len(live), len(want))
		}
		for i, d := range want {
			if g := live[i].Grant; live[i].Req.ID != d.ID || g.Bandwidth != d.Rate || g.Sigma != d.Sigma || g.Tau != d.Tau {
				t.Fatalf("live[%d] = %+v, want the grant %+v", i, live[i], d)
			}
		}
	}

	s, end := life()
	first := accept(s, 0, 1)
	end()

	s, end = life()
	holds(s, first)
	second := accept(s, 1, 0)
	if second.ID != first.ID+1 {
		t.Fatalf("the second life answered ID %d, want %d", second.ID, first.ID+1)
	}
	end()

	s, end = life()
	defer end()
	holds(s, first, second)
}
