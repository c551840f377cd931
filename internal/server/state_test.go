package server

import (
	"sync"
	"testing"
	"time"

	"gridbw/internal/alloc"
	"gridbw/internal/hold"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

// TestStateTransitions drives the reservation state machine alone — no
// HTTP, no WAL, no clock, no goroutine — through every lifecycle the daemon
// has, each one booked both ways a transition's caller books: as the live
// path does (book under the shard lock, then file) and as replay and
// snapshot install do (restore). Every lifecycle must end with the
// invariant intact and nothing booked.
func TestStateTransitions(t *testing.T) {
	net, err := topology.New(topology.Config{
		Ingress: []units.Bandwidth{units.GBps, units.GBps},
		Egress:  []units.Bandwidth{units.GBps, units.GBps},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := request.Request{ID: 7, Ingress: 0, Egress: 1, Start: 0, Finish: 400, Volume: 100 * units.GB, MaxRate: units.GBps}
	g := request.Grant{Request: 7, Bandwidth: units.GBps, Sigma: 10, Tau: 110}
	h := hold.Entry{
		Key: "x-1", Side: trace.HoldSideIngress, Point: 0, Peer: 1, ID: 3,
		BW: units.GBps, Sigma: 10, Tau: 110, Volume: 100 * units.GB, MaxRate: units.GBps, ExpireAt: 15,
	}

	// step delivers one hold message and fails the test on a decision error.
	step := func(t *testing.T, st *state, m hold.Msg) hold.Result {
		t.Helper()
		res, err := st.holds.Step(m)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reserve := func(decide func() (hold.Entry, error)) hold.Msg {
		return hold.Msg{Kind: hold.Reserve, Key: h.Key, Decide: decide}
	}

	// The two ways to reach "booked and filed".
	type booker struct {
		name   string
		accept func(t *testing.T, st *state) *entry
		hold   func(t *testing.T, st *state) *hold.Entry
	}
	bookers := []booker{
		{"live", func(t *testing.T, st *state) *entry {
			tx := st.ledger.Pair(r.Ingress, r.Egress)
			defer tx.Unlock()
			if err := tx.Reserve(r, g); err != nil {
				t.Fatal(err)
			}
			return st.register(r, g)
		}, func(t *testing.T, st *state) *hold.Entry {
			return step(t, st, reserve(func() (hold.Entry, error) {
				return h, st.ledger.HoldReserve(h.Dir(), h.Point, h.Sigma, h.Tau, h.BW)
			})).Entry
		}},
		{"replayed", func(t *testing.T, st *state) *entry {
			e, err := st.restore(r, g)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}, func(t *testing.T, st *state) *hold.Entry {
			return step(t, st, reserve(func() (hold.Entry, error) { return st.bookHold(h) })).Entry
		}},
	}
	msg := func(kind hold.Kind) hold.Msg { return hold.Msg{Kind: kind, Key: h.Key} }

	lifecycles := []struct {
		name string
		run  func(t *testing.T, st *state, b booker)
	}{
		{"reserve, confirm, release", func(t *testing.T, st *state, b booker) {
			e := b.hold(t, st)
			if key, _ := st.holds.KeyOf(3); e.State != hold.Held || !e.Booked || key != "x-1" {
				t.Fatalf("held hold = %+v, by id %q", e, key)
			}
			if _, err := st.bookHold(h); err == nil {
				t.Fatal("a second full-capacity hold fit beside the first")
			}
			if step(t, st, msg(hold.Release)).Released {
				t.Fatal("released a hold that was never confirmed")
			}
			if !step(t, st, msg(hold.Confirm)).Log || step(t, st, msg(hold.Confirm)).Log || e.State != hold.Confirmed {
				t.Fatalf("confirm, then confirm again: %+v", e)
			}
			if !step(t, st, msg(hold.Release)).Released || step(t, st, msg(hold.Release)).Released || e.Booked {
				t.Fatalf("release, then release again: %+v", e)
			}
		}},
		{"reserve, TTL", func(t *testing.T, st *state, b booker) {
			b.hold(t, st)
			res := step(t, st, msg(hold.Lapse))
			if e := res.Entry; !res.Released || e.State != hold.Aborted || e.Booked {
				t.Fatalf("rollback = %+v, released %v", e, res.Released)
			}
			if step(t, st, msg(hold.Lapse)).Released {
				t.Fatal("a second rollback released capacity again")
			}
			if step(t, st, msg(hold.Confirm)).Answer != hold.Conflict {
				t.Fatal("confirmed a hold that rolled back")
			}
		}},
		{"confirm, compensating abort", func(t *testing.T, st *state, b booker) {
			b.hold(t, st)
			step(t, st, msg(hold.Confirm))
			if res := step(t, st, msg(hold.Abort)); !res.Released || res.Entry.State != hold.Aborted {
				t.Fatalf("abort of a confirmed hold = %+v, released %v", res.Entry, res.Released)
			}
		}},
		{"abort before reserve, late reserve", func(t *testing.T, st *state, _ booker) {
			res := step(t, st, hold.Msg{Kind: hold.Abort, Key: h.Key, Reason: "aborted before reserve"})
			if e := res.Entry; res.Released || e.State != hold.Aborted || e.Booked || e.Reason != "aborted before reserve" {
				t.Fatalf("tombstone = %+v, released %v", e, res.Released)
			}
			// The late RESERVE finds the tombstone under its key and books
			// nothing: its decision never runs.
			late := step(t, st, reserve(func() (hold.Entry, error) {
				t.Fatal("a late RESERVE decided past its tombstone")
				return h, nil
			}))
			if late.Answer != hold.Refused || late.Entry != res.Entry {
				t.Fatalf("late reserve answers %v from %+v, want a refusal from the tombstone", late.Answer, late.Entry)
			}
		}},
		{"accept, cancel", func(t *testing.T, st *state, b booker) {
			e := b.accept(t, st)
			if e.req.Start != g.Sigma || e.req.Finish != g.Tau || e.state != StateActive {
				t.Fatalf("entry %+v does not carry the granted window", e.req)
			}
			if _, err := st.restore(r, g); err == nil {
				t.Fatal("the same reservation restored twice")
			}
			st.finish(e, StateCancelled, 0)
			if st.stats.Accepted != 1 || st.stats.Cancelled != 1 || st.resv[7].state != StateCancelled {
				t.Fatalf("after cancel: %+v, entry %+v", st.stats, st.resv[7])
			}
		}},
		{"accept, expire", func(t *testing.T, st *state, b booker) {
			st.finish(b.accept(t, st), StateExpired, 0)
			if st.stats.Expired != 1 || len(st.finished) != 1 {
				t.Fatalf("after expiry: %+v, finished %v", st.stats, st.finished)
			}
		}},
		{"retention evicts and recycles", func(t *testing.T, st *state, b booker) {
			first := b.accept(t, st)
			st.finish(first, StateExpired, 0)
			second, err := st.restore(request.Request{ID: 8, Ingress: 1, Egress: 0, Volume: units.GB, MaxRate: units.GBps},
				request.Grant{Request: 8, Bandwidth: units.GBps, Sigma: 0, Tau: 1})
			if err != nil {
				t.Fatal(err)
			}
			st.finish(second, StateCancelled, 0) // retention is 1: reservation 7 leaves
			if _, ok := st.resv[7]; ok || len(st.resv) != 1 || first.state != "" {
				t.Fatalf("registry %v after eviction, evicted entry %+v", st.resv, first)
			}
		}},
	}

	for _, lc := range lifecycles {
		for _, b := range bookers {
			t.Run(lc.name+"/"+b.name, func(t *testing.T) {
				st := newState(net, 1, &sync.Pool{New: func() any { return new(entry) }})
				lc.run(t, st, b)
				if err := st.verify(); err != nil {
					t.Fatal(err)
				}
				if n := st.ledger.NumGranted(); n != 0 || len(st.liveIDs()) != 0 {
					t.Fatalf("%d grants in the ledger, live %v at the end", n, st.liveIDs())
				}
				if held, confirmed := st.holds.Booked(); held+confirmed != 0 {
					t.Fatalf("%d held / %d confirmed holds still book capacity at the end", held, confirmed)
				}
				for _, at := range []units.Time{0, 0.5, 10, 60, 109} {
					in, eg := st.ledger.UsageAt(at)
					for _, used := range append(in, eg...) {
						if used != 0 {
							t.Fatalf("usage at %v = %v / %v, want nothing booked", at, in, eg)
						}
					}
				}
			})
		}
	}
}

// TestStalePhaseTwoStartIsRaisedToTheFloor: phase 2 of a batch decides with
// phase 1's now, which another call's expiry or cancel may have overtaken
// while the item waited for its pair locks. admitTx decides no earlier than
// the pair's floor: a window that ended behind it is refused instead of
// granted over a span the profiles no longer hold, and a flexible request
// starts at the floor.
func TestStalePhaseTwoStartIsRaisedToTheFloor(t *testing.T) {
	s, err := New(Config{
		Ingress: []units.Bandwidth{units.GBps}, Egress: []units.Bandwidth{units.GBps},
		Policy: "f=1", Clock: func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var tx alloc.PairTx
	s.ledger.LockPair(&tx, 0, 0)
	defer tx.Unlock()
	tx.Egress().TrimBefore(100) // what another call's cancel at 100 s leaves
	past := &batchItem{r: request.Request{ID: 1, Start: 10, Finish: 50, Volume: 10 * units.GB, MaxRate: units.GBps}}
	s.admitTx(&tx, past)
	if past.accepted {
		t.Errorf("a window that ended at 50 s behind the floor at 100 s was granted %+v", past.g)
	}
	flex := &batchItem{r: request.Request{ID: 2, Start: 90, Finish: 1000, Volume: 10 * units.GB, MaxRate: units.GBps}}
	s.admitTx(&tx, flex)
	if !flex.accepted || flex.g.Sigma != 100 || flex.r.Start != 100 {
		t.Errorf("stale start 90 against the floor at 100: accepted %v, σ %v, start %v; want a grant at 100", flex.accepted, flex.g.Sigma, flex.r.Start)
	}
}
