package server

import (
	"sync"
	"testing"

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
	h := holdEntry{
		key: "x-1", side: trace.HoldSideIngress, point: 0, peer: 1, id: 3,
		bw: units.GBps, sigma: 10, tau: 110, volume: 100 * units.GB, maxRate: units.GBps, expireAt: 15,
	}

	// The two ways to reach "booked and filed".
	type booker struct {
		name   string
		accept func(t *testing.T, st *state) *entry
		hold   func(t *testing.T, st *state) *holdEntry
	}
	bookers := []booker{
		{"live", func(t *testing.T, st *state) *entry {
			tx := st.ledger.Pair(r.Ingress, r.Egress)
			defer tx.Unlock()
			if err := tx.Reserve(r, g); err != nil {
				t.Fatal(err)
			}
			return st.register(r, g)
		}, func(t *testing.T, st *state) *holdEntry {
			if err := st.ledger.HoldReserve(h.dir(), h.point, h.sigma, h.tau, h.bw); err != nil {
				t.Fatal(err)
			}
			return st.hold(h)
		}},
		{"replayed", func(t *testing.T, st *state) *entry {
			e, err := st.restore(r, g)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}, func(t *testing.T, st *state) *holdEntry {
			e, err := st.restoreHold(h)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}

	lifecycles := []struct {
		name string
		run  func(t *testing.T, st *state, b booker)
	}{
		{"reserve, confirm, release", func(t *testing.T, st *state, b booker) {
			e := b.hold(t, st)
			if e.state != holdHeld || !e.booked || st.holdsByID[3] != "x-1" {
				t.Fatalf("held hold = %+v, by id %q", e, st.holdsByID[3])
			}
			if _, err := st.restoreHold(h); err == nil {
				t.Fatal("a second full-capacity hold fit beside the first")
			}
			if st.releaseHold(e) {
				t.Fatal("released a hold that was never confirmed")
			}
			if !st.confirm(e) || st.confirm(e) || e.state != holdConfirmed {
				t.Fatalf("confirm, then confirm again: %+v", e)
			}
			if !st.releaseHold(e) || st.releaseHold(e) || e.booked {
				t.Fatalf("release, then release again: %+v", e)
			}
		}},
		{"reserve, TTL", func(t *testing.T, st *state, b booker) {
			b.hold(t, st)
			e, released := st.rollback("x-1", "")
			if !released || e.state != holdAborted || e.booked {
				t.Fatalf("rollback = %+v, released %v", e, released)
			}
			if _, again := st.rollback("x-1", ""); again {
				t.Fatal("a second rollback released capacity again")
			}
			if st.confirm(e) {
				t.Fatal("confirmed a hold that rolled back")
			}
		}},
		{"confirm, compensating abort", func(t *testing.T, st *state, b booker) {
			e := b.hold(t, st)
			st.confirm(e)
			if _, released := st.rollback("x-1", ""); !released || e.state != holdAborted {
				t.Fatalf("abort of a confirmed hold = %+v, released %v", e, released)
			}
		}},
		{"abort before reserve, late reserve", func(t *testing.T, st *state, _ booker) {
			e, released := st.rollback("x-1", "aborted before reserve")
			if released || e.state != holdAborted || e.booked || e.reason != "aborted before reserve" {
				t.Fatalf("tombstone = %+v, released %v", e, released)
			}
			// The late RESERVE finds the tombstone under its key and books
			// nothing (holdReserveLocked answers from it).
			if late, ok := st.holds["x-1"]; !ok || late != e {
				t.Fatalf("late reserve finds %+v, want the tombstone", late)
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
			st.finish(e, StateCancelled)
			if st.stats.Accepted != 1 || st.stats.Cancelled != 1 || st.resv[7].state != StateCancelled {
				t.Fatalf("after cancel: %+v, entry %+v", st.stats, st.resv[7])
			}
		}},
		{"accept, expire", func(t *testing.T, st *state, b booker) {
			st.finish(b.accept(t, st), StateExpired)
			if st.stats.Expired != 1 || len(st.finished) != 1 {
				t.Fatalf("after expiry: %+v, finished %v", st.stats, st.finished)
			}
		}},
		{"retention evicts and recycles", func(t *testing.T, st *state, b booker) {
			first := b.accept(t, st)
			st.finish(first, StateExpired)
			second, err := st.restore(request.Request{ID: 8, Ingress: 1, Egress: 0, Volume: units.GB, MaxRate: units.GBps},
				request.Grant{Request: 8, Bandwidth: units.GBps, Sigma: 0, Tau: 1})
			if err != nil {
				t.Fatal(err)
			}
			st.finish(second, StateCancelled) // retention is 1: reservation 7 leaves
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
				for _, e := range st.holds {
					if e.booked {
						t.Fatalf("hold %+v still books capacity at the end", e)
					}
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
