package alloc

import (
	"errors"
	"fmt"
	"testing"

	"gridbw/internal/admit"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// booker is one of the three stores behind admit.At, with a rendering of
// everything a refusal could have disturbed: usage, breakpoints, and what
// Counters still owes a later AdvanceTo.
type booker struct {
	name     string
	b        admit.Booker
	state    func() string
	oneSided bool // books the ingress point only
}

func profileState(ps ...*Profile) string {
	s := ""
	for _, p := range ps {
		s += fmt.Sprintf("[%d breakpoints; max %v; at 0/60/99/100: %v %v %v %v]",
			p.Breakpoints(), p.MaxUsedIn(0, 1000), p.UsedAt(0), p.UsedAt(60), p.UsedAt(99), p.UsedAt(100))
	}
	return s
}

func bookers(t *testing.T) []booker {
	net := testNet()
	counters := NewCounters(net)
	pairTx := NewSharded(net).Pair(0, 1)
	t.Cleanup(pairTx.Unlock)
	pointTx := NewSharded(net).LockPoint(topology.Ingress, 0)
	t.Cleanup(pointTx.Unlock)
	return []booker{
		{name: "Counters", b: counters, state: func() string {
			return fmt.Sprintf("ali %v ale %v, %d ends", counters.ali, counters.ale, len(counters.ends))
		}},
		{name: "PairTx", b: pairTx, state: func() string { return profileState(pairTx.Ingress(), pairTx.Egress()) }},
		{name: "PointTx", b: pointTx, oneSided: true, state: func() string { return profileState(pointTx.Profile()) }},
	}
}

// TestEveryBookerEveryCause drives admit.At into each of its causes on each
// of the three stores: a refusal of any kind leaves the store exactly as it
// was, and an admission books exactly the grant At returns.
func TestEveryBookerEveryCause(t *testing.T) {
	for _, bk := range bookers(t) {
		// 600 MB/s on 0->1 over [0, 100): leaves 400 MB/s on both points.
		first := req(0, 0, 1)
		first.Volume = 60 * units.GB
		g, no := admit.At(bk.b, policy.MinRate(), first, 0)
		if no.Cause != admit.Admitted || g.Bandwidth != 600*units.MBps || g.Tau != 100 {
			t.Fatalf("%s: first admission: %+v, %v", bk.name, g, no)
		}
		booked := bk.state()
		if bk.oneSided {
			if p := bk.b.(*PointTx).Profile(); p.UsedAt(50) != g.Bandwidth || p.UsedAt(100) != 0 {
				t.Fatalf("%s: booked %s, want %v on [0, 100)", bk.name, booked, g.Bandwidth)
			}
		}

		r := req(1, 0, 1) // 50 GB by t=100 at up to 1 GB/s: MinRate 500 MB/s
		refusals := []struct {
			name  string
			pol   policy.Policy
			sigma units.Time
			cause admit.Cause
		}{
			{"policy: past the deadline", policy.MinRate(), 100, admit.Policy},
			{"policy: MaxRate cannot make it", policy.MinRate(), 99, admit.Policy},
			{"grant: strict floor from a late start", policy.StrictRequestedMinRate(), 50, admit.Grant},
			{"capacity: 500 MB/s into 400 MB/s free", policy.MinRate(), 0, admit.Capacity},
			{"capacity: full host rate", policy.FractionMaxRate(1), 0, admit.Capacity},
		}
		for _, c := range refusals {
			got, no := admit.At(bk.b, c.pol, r, c.sigma)
			if no.Cause != c.cause || got != (request.Grant{}) {
				t.Errorf("%s: %s: cause %v (%v), grant %+v", bk.name, c.name, no.Cause, no.Err, got)
			}
			if now := bk.state(); now != booked {
				t.Errorf("%s: %s changed the store:\n was %s\n now %s", bk.name, c.name, booked, now)
			}
			var ce *CapacityError
			if c.cause == admit.Capacity && bk.name != "Counters" && !errors.As(no.Err, &ce) {
				t.Errorf("%s: %s: refusal carries %T, want a *CapacityError", bk.name, c.name, no.Err)
			}
		}

		// After the first transfer's τ there is room again: the time-indexed
		// stores see it in the profile, Counters once it is advanced.
		if c, ok := bk.b.(*Counters); ok {
			c.AdvanceTo(100)
			if len(c.ends) != 0 || c.Ali(0) != 0 || c.Ale(1) != 0 {
				t.Errorf("Counters after AdvanceTo(100): %s", bk.state())
			}
		}
		late := r
		late.Start, late.Finish = 100, 200
		if _, no := admit.At(bk.b, policy.MinRate(), late, 100); no.Cause != admit.Admitted {
			t.Errorf("%s: admission after the first transfer ended: %v", bk.name, no)
		}
	}
}
