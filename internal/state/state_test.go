package state

import (
	"math"
	"slices"
	"testing"

	"gridbw/internal/des"
	"gridbw/internal/hold"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

func testNet(t testing.TB) *topology.Network {
	net, err := topology.New(topology.Config{
		Ingress: []units.Bandwidth{units.GBps, units.GBps},
		Egress:  []units.Bandwidth{units.GBps, units.GBps},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestStateTransitions drives the reservation state machine alone — no
// HTTP, no WAL, no clock, no goroutine — through every lifecycle the daemon
// has, each one booked and stepped three ways: as the live path does (book
// under the shard lock, then the live transition, which arms and logs), as
// the replay function's own steps do (restore, bookHold, the replayed hold
// step), and as records fed through Apply, the one replay function. Every
// lifecycle must end with the invariant intact and nothing booked, and the
// live one must log exactly the records it lists.
func TestStateTransitions(t *testing.T) {
	net := testNet(t)
	r := request.Request{ID: 7, Ingress: 0, Egress: 1, Start: 0, Finish: 400, Volume: 100 * units.GB, MaxRate: units.GBps}
	g := request.Grant{Request: 7, Bandwidth: units.GBps, Sigma: 10, Tau: 110}
	h := hold.Entry{
		Key: "x-1", Side: trace.HoldSideIngress, Point: 0, Peer: 1, ID: 3,
		BW: units.GBps, Sigma: 10, Tau: 110, Volume: 100 * units.GB, MaxRate: units.GBps, ExpireAt: 15,
	}

	// The three ways to book and to step. msg delivers a hold message, with
	// the reason an ABORT of an unknown key files; finish cancels or expires
	// a reservation.
	type booker struct {
		name   string
		accept func(t *testing.T, m *Machine) *entry
		hold   func(t *testing.T, m *Machine) *hold.Entry
		msg    func(t *testing.T, m *Machine, kind hold.Kind, reason string)
		finish func(t *testing.T, m *Machine, e *entry, to State)
	}
	step := func(t *testing.T, m *Machine, msg hold.Msg, live bool) *hold.Entry {
		t.Helper()
		res, err := m.step(0, msg, live)
		if err != nil {
			t.Fatal(err)
		}
		return res.Entry
	}
	apply := func(t *testing.T, m *Machine, ev trace.Event) {
		t.Helper()
		if _, err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	filed := func(m *Machine) *hold.Entry { e, _ := m.holds.Get(h.Key); return e }
	bookers := []booker{
		{"live", func(t *testing.T, m *Machine) *entry {
			tx := m.ledger.Pair(r.Ingress, r.Egress)
			err := tx.Reserve(r, g)
			tx.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			m.Accept(0, r, g, "")
			return m.resv[r.ID]
		}, func(t *testing.T, m *Machine) *hold.Entry {
			return step(t, m, hold.Msg{Kind: hold.Reserve, Key: h.Key, Decide: func() (hold.Entry, error) {
				return h, m.ledger.HoldReserve(h.Dir(), h.Point, h.Sigma, h.Tau, h.BW)
			}}, true)
		}, func(t *testing.T, m *Machine, kind hold.Kind, reason string) {
			m.HoldStep(0, hold.Msg{Kind: kind, Key: h.Key, Reason: reason})
		}, func(t *testing.T, m *Machine, e *entry, to State) {
			if to == Cancelled {
				if _, err := m.Cancel(0, e.req.ID); err != nil {
					t.Fatal(err)
				}
			} else {
				m.expire(e, e.grant.Tau)
			}
		}},
		{"replayed", func(t *testing.T, m *Machine) *entry {
			e, err := m.restore(r, g)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}, func(t *testing.T, m *Machine) *hold.Entry {
			return step(t, m, hold.Msg{Kind: hold.Reserve, Key: h.Key, Decide: func() (hold.Entry, error) { return m.bookHold(h) }}, false)
		}, func(t *testing.T, m *Machine, kind hold.Kind, reason string) {
			step(t, m, hold.Msg{Kind: kind, Key: h.Key, Reason: reason}, false)
		}, func(t *testing.T, m *Machine, e *entry, to State) {
			m.finish(e, to, 0)
		}},
		{"applied", func(t *testing.T, m *Machine) *entry {
			apply(t, m, resvEvent(0, trace.EventAccept, r, g, "", ""))
			return m.resv[r.ID]
		}, func(t *testing.T, m *Machine) *hold.Entry {
			apply(t, m, holdEvent(0, trace.EventHoldReserve, &h))
			return filed(m)
		}, func(t *testing.T, m *Machine, kind hold.Kind, reason string) {
			e := h
			if _, known := m.holds.Get(h.Key); !known {
				e = hold.Entry{Key: h.Key, ID: -1, Peer: -1} // an ABORT's tombstone
			}
			e.Reason = reason
			apply(t, m, holdEvent(0, holdEvents[kind], &e))
		}, func(t *testing.T, m *Machine, e *entry, to State) {
			kind := trace.EventExpire
			if to == Cancelled {
				kind = trace.EventCancel
			}
			apply(t, m, resvEvent(0, kind, e.req, e.grant, "", ""))
		}},
	}

	// used is what point 0's ingress profile books inside both windows.
	used := func(m *Machine) units.Bandwidth {
		in, _ := m.ledger.UsageAt(50)
		return in[0]
	}
	held := func(t *testing.T, m *Machine, st hold.State, booked bool, bw units.Bandwidth) {
		t.Helper()
		if e := filed(m); e == nil || e.State != st || e.Booked != booked || used(m) != bw {
			t.Fatalf("hold %+v books %v, want %v, booked %v, %v", e, used(m), st, booked, bw)
		}
	}

	lifecycles := []struct {
		name string
		run  func(t *testing.T, m *Machine, b booker)
		logs []string // what the live path logs
	}{
		{"reserve, confirm, release", func(t *testing.T, m *Machine, b booker) {
			b.hold(t, m)
			if key, _ := m.holds.KeyOf(3); key != "x-1" {
				t.Fatalf("hold by id = %q", key)
			}
			held(t, m, hold.Held, true, units.GBps)
			if _, err := m.bookHold(h); err == nil {
				t.Fatal("a second full-capacity hold fit beside the first")
			}
			b.msg(t, m, hold.Release, "") // never confirmed: nothing to release
			held(t, m, hold.Held, true, units.GBps)
			b.msg(t, m, hold.Confirm, "")
			b.msg(t, m, hold.Confirm, "")
			held(t, m, hold.Confirmed, true, units.GBps)
			b.msg(t, m, hold.Release, "")
			b.msg(t, m, hold.Release, "")
			held(t, m, hold.Confirmed, false, 0)
		}, []string{trace.EventHoldReserve, trace.EventHoldConfirm, trace.EventHoldRelease}},
		{"reserve, TTL", func(t *testing.T, m *Machine, b booker) {
			b.hold(t, m)
			b.msg(t, m, hold.Lapse, "")
			held(t, m, hold.Aborted, false, 0)
			b.msg(t, m, hold.Lapse, "")
			b.msg(t, m, hold.Confirm, "") // a conflict: the hold rolled back
			held(t, m, hold.Aborted, false, 0)
		}, []string{trace.EventHoldReserve, trace.EventHoldExpire}},
		{"confirm, compensating abort", func(t *testing.T, m *Machine, b booker) {
			b.hold(t, m)
			b.msg(t, m, hold.Confirm, "")
			b.msg(t, m, hold.Abort, "")
			held(t, m, hold.Aborted, false, 0)
		}, []string{trace.EventHoldReserve, trace.EventHoldConfirm, trace.EventHoldAbort}},
		{"abort before reserve, late reserve", func(t *testing.T, m *Machine, b booker) {
			b.msg(t, m, hold.Abort, "aborted before reserve")
			tomb := filed(m)
			held(t, m, hold.Aborted, false, 0)
			// The late RESERVE finds the tombstone under its key and books
			// nothing: its decision never runs.
			if late := b.hold(t, m); late != tomb || late.Reason != "aborted before reserve" {
				t.Fatalf("late reserve filed %+v over the tombstone %+v", late, tomb)
			}
			held(t, m, hold.Aborted, false, 0)
		}, []string{trace.EventHoldAbort}},
		{"accept, cancel", func(t *testing.T, m *Machine, b booker) {
			e := b.accept(t, m)
			if e.req.Start != g.Sigma || e.req.Finish != g.Tau || e.state != Active {
				t.Fatalf("entry %+v does not carry the granted window", e.req)
			}
			if _, err := m.restore(r, g); err == nil {
				t.Fatal("the same reservation restored twice")
			}
			b.finish(t, m, e, Cancelled)
			if m.Stats.Accepted != 1 || m.Stats.Cancelled != 1 || m.resv[7].state != Cancelled {
				t.Fatalf("after cancel: %+v, entry %+v", m.Stats, m.resv[7])
			}
		}, []string{trace.EventAccept, trace.EventCancel}},
		{"accept, expire", func(t *testing.T, m *Machine, b booker) {
			b.finish(t, m, b.accept(t, m), Expired)
			if m.Stats.Expired != 1 || m.finished.len() != 1 {
				t.Fatalf("after expiry: %+v, finished %d", m.Stats, m.finished.len())
			}
		}, []string{trace.EventAccept, trace.EventExpire}},
		{"retention evicts and recycles", func(t *testing.T, m *Machine, b booker) {
			first := b.accept(t, m)
			b.finish(t, m, first, Expired)
			second, err := m.restore(request.Request{ID: 8, Ingress: 1, Egress: 0, Volume: units.GB, MaxRate: units.GBps},
				request.Grant{Request: 8, Bandwidth: units.GBps, Sigma: 0, Tau: 1})
			if err != nil {
				t.Fatal(err)
			}
			m.finish(second, Cancelled, 0) // retention is 1: reservation 7 leaves
			if _, ok := m.resv[7]; ok || len(m.resv) != 1 || first.state != "" {
				t.Fatalf("registry %v after eviction, evicted entry %+v", m.resv, first)
			}
		}, []string{trace.EventAccept, trace.EventExpire}},
	}

	for _, lc := range lifecycles {
		for _, b := range bookers {
			t.Run(lc.name+"/"+b.name, func(t *testing.T) {
				m := New(net, policy.MinRate(), 1)
				var logged []string
				if b.name == "live" {
					sim := des.New()
					m.Arm = sim.At
					m.Log = func(ev trace.Event) { logged = append(logged, ev.Kind) }
				}
				lc.run(t, m, b)
				if b.name == "live" && !slices.Equal(logged, lc.logs) {
					t.Errorf("logged %v, want %v", logged, lc.logs)
				}
				if err := m.Verify(); err != nil {
					t.Fatal(err)
				}
				if live := m.Live(0); len(live) != 0 {
					t.Fatalf("live %v at the end", live)
				}
				if held, confirmed := m.holds.Booked(); held+confirmed != 0 {
					t.Fatalf("%d held / %d confirmed holds still book capacity at the end", held, confirmed)
				}
				for _, at := range []units.Time{0, 0.5, 10, 60, 109} {
					in, eg := m.ledger.UsageAt(at)
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

// TestReplayRefusesAnInstantTheClockCannotRunFrom: Apply refuses a record
// stamped at or past maxInstantS, or at no finite instant, and Install a
// snapshot whose now is; either leaves the machine as it was.
func TestReplayRefusesAnInstantTheClockCannotRunFrom(t *testing.T) {
	m := New(testNet(t), policy.MinRate(), 0)
	for _, at := range []float64{maxInstantS, 1e10, math.Inf(1), math.NaN()} {
		ev := trace.Event{At: at, Kind: trace.EventCancel, Request: 5}
		if fresh, err := m.Apply(ev); fresh || err == nil {
			t.Errorf("Apply at %g s: %v, %v; want a refusal", at, fresh, err)
		}
		if err := New(testNet(t), policy.MinRate(), 0).Install(nil, units.Time(at), 0, m.Stats); err == nil {
			t.Errorf("Install at now %g s succeeded", at)
		}
	}
	if m.NextID != 0 {
		t.Errorf("NextID %d after refused records, want 0", m.NextID)
	}
	if fresh, err := m.Apply(trace.Event{At: maxInstantS - 1, Kind: trace.EventReject, Request: 5}); !fresh || err != nil {
		t.Errorf("Apply just below the bound: %v, %v", fresh, err)
	}
}

// acceptAt applies the accept record of reservation id, granted bw on
// ingress 0 and egress 1 over [σ, τ], at service time now: the machine books
// it and arms its expiry.
func acceptAt(t *testing.T, m *Machine, now units.Time, id request.ID, sigma, tau units.Time) *entry {
	t.Helper()
	r := request.Request{ID: id, Ingress: 0, Egress: 1, Volume: units.MBps.For(tau - sigma), MaxRate: units.MBps}
	g := request.Grant{Request: id, Bandwidth: units.MBps, Sigma: sigma, Tau: tau}
	if _, err := m.Apply(resvEvent(now, trace.EventAccept, r, g, "", "")); err != nil {
		t.Fatal(err)
	}
	return m.resv[id]
}

// TestArmTimersKeepsOneTimerPerEntry: ArmTimers on a machine whose entries
// are armed already re-arms each in place, so every live entry holds one
// live expiry timer however often it runs, and each fires once.
func TestArmTimersKeepsOneTimerPerEntry(t *testing.T) {
	m := New(testNet(t), policy.MinRate(), 16)
	sim := des.New()
	m.Arm = sim.At
	var expired []int
	m.Log = func(ev trace.Event) { expired = append(expired, ev.Request) }
	const n = 5
	for id := range request.ID(n) {
		acceptAt(t, m, 0, id, 0, units.Time(10+id))
	}
	for range 2 {
		if armed := m.ArmTimers(); armed != n {
			t.Fatalf("ArmTimers armed %d timers, want %d", armed, n)
		}
	}
	sim.Run()
	if sim.Fired() != n || !slices.Equal(expired, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("%d timers fired, expiring %v; want one per entry, %d", sim.Fired(), expired, n)
	}
}

// TestRecycledEntryOutlivesItsPreviousLife: a reservation is cancelled, its
// entry evicted and reused for a new reservation; the timer of the entry's
// previous life never expires the new one, which expires at its own τ.
func TestRecycledEntryOutlivesItsPreviousLife(t *testing.T) {
	m := New(testNet(t), policy.MinRate(), 1)
	sim := des.New()
	m.Arm = sim.At
	var expired []int
	m.Log = func(ev trace.Event) {
		if ev.Kind == trace.EventExpire {
			expired = append(expired, ev.Request)
		}
	}
	first := acceptAt(t, m, 0, 1, 0, 10)
	if _, err := m.Cancel(1, 1); err != nil {
		t.Fatal(err)
	}
	acceptAt(t, m, 1, 2, 1, 100)
	if _, err := m.Cancel(2, 2); err != nil { // retention 1: reservation 1 is evicted
		t.Fatal(err)
	}
	if e := acceptAt(t, m, 2, 3, 2, 50); e != first {
		t.Fatal("the evicted entry was not reused")
	}
	sim.RunUntil(20)
	if d, err := m.Lookup(20, 3); err != nil || d.State != Active || len(expired) != 0 {
		t.Fatalf("at 20: reservation 3 is %+v, %v; expired %v", d, err, expired)
	}
	sim.RunUntil(60)
	if d, _ := m.Lookup(60, 3); d.State != Expired || !slices.Equal(expired, []int{3}) || sim.Now() != 60 {
		t.Fatalf("at 60: reservation 3 is %+v; expired %v", d, expired)
	}
}
