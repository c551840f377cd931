package admit_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"gridbw/internal/admit"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/units"
)

func base() request.Request {
	return request.Request{Start: 10, Finish: 110, Volume: 10 * units.GB, MaxRate: units.GBps}
}

type checkCase struct {
	name  string
	mut   func(*request.Request)
	cause admit.Cause
	text  string // the whole error text; "" when only the cause is pinned
}

func TestCheck(t *testing.T) {
	cases := []checkCase{
		{"feasible", func(*request.Request) {}, admit.Admitted, ""},
		{"rigid to the ulp", func(r *request.Request) { r.MaxRate = r.MinRate() }, admit.Admitted, ""},
		{"far finite deadline", func(r *request.Request) { r.Finish = 1e300 }, admit.Admitted, ""},
		{"zero volume", func(r *request.Request) { r.Volume = 0 }, admit.Malformed, "non-positive volume 0B"},
		{"negative rate", func(r *request.Request) { r.MaxRate = -1 }, admit.Malformed, "non-positive max rate -1B/s"},
		{"deadline at start", func(r *request.Request) { r.Finish = r.Start }, admit.EmptyWindow,
			"empty window: deadline 10s not after start 10s"},
		{"deadline before start", func(r *request.Request) { r.Finish = 5 }, admit.EmptyWindow, ""},
		{"too much volume", func(r *request.Request) { r.Volume = units.TB }, admit.Infeasible,
			"infeasible: needs 10GB/s to move 1TB in window but MaxRate is 1GB/s"},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := bad
		for field, set := range map[string]func(*request.Request){
			"start":    func(r *request.Request) { r.Start = units.Time(bad) },
			"finish":   func(r *request.Request) { r.Finish = units.Time(bad) },
			"volume":   func(r *request.Request) { r.Volume = units.Volume(bad) },
			"max rate": func(r *request.Request) { r.MaxRate = units.Bandwidth(bad) },
		} {
			cases = append(cases, checkCase{field + " " + units.Time(bad).String(), set, admit.Malformed, "non-finite volume, rate or time"})
		}
	}
	for _, c := range cases {
		r := base()
		c.mut(&r)
		no := admit.Check(r)
		if no.Cause != c.cause || (no.Err == nil) != (no.Cause == admit.Admitted) {
			t.Errorf("%s: Check = %v, %v; want cause %v", c.name, no.Cause, no.Err, c.cause)
			continue
		}
		if c.text != "" && no.Err.Error() != c.text {
			t.Errorf("%s: Check says %q, want %q", c.name, no.Err, c.text)
		}
	}
}

// recorder books nothing and remembers what it was asked.
type recorder struct {
	calls int
	got   request.Grant
	err   error
}

func (b *recorder) Reserve(_ request.Request, g request.Grant) error {
	b.calls++
	b.got = g
	return b.err
}

func TestAt(t *testing.T) {
	r := base()
	full := errors.New("store is full")
	cases := []struct {
		name  string
		pol   policy.Policy
		sigma units.Time
		store *recorder
		cause admit.Cause
		says  string
	}{
		{"admitted at the window's start", policy.FractionMaxRate(0.5), 10, &recorder{}, admit.Admitted, ""},
		{"admitted later in the window", policy.MinRate(), 60, &recorder{}, admit.Admitted, ""},
		{"past the deadline", policy.MinRate(), 110, &recorder{}, admit.Policy, "policy: policy: request 0 started at"},
		{"too late for MaxRate", policy.MinRate(), 105, &recorder{}, admit.Policy, "policy: policy: request 0 needs"},
		{"strict floor, late start", policy.StrictRequestedMinRate(), 60, &recorder{}, admit.Grant, "grant: grant for request 0: finish"},
		{"before the window", policy.MinRate(), 5, &recorder{}, admit.Grant, "grant: grant for request 0: start"},
		{"no room", policy.MinRate(), 10, &recorder{err: full}, admit.Capacity, "capacity: store is full"},
	}
	for _, c := range cases {
		g, no := admit.At(c.store, c.pol, r, c.sigma)
		if no.Cause != c.cause {
			t.Errorf("%s: cause %v (%v), want %v", c.name, no.Cause, no.Err, c.cause)
			continue
		}
		// The store is asked exactly once, and only for a grant that exists.
		wantCalls := 0
		if c.cause == admit.Admitted || c.cause == admit.Capacity {
			wantCalls = 1
		}
		if c.store.calls != wantCalls {
			t.Errorf("%s: %d Reserve calls, want %d", c.name, c.store.calls, wantCalls)
		}
		if c.cause != admit.Admitted {
			if g != (request.Grant{}) || !strings.HasPrefix(no.String(), c.says) {
				t.Errorf("%s: grant %+v, refusal %q; want no grant and %q…", c.name, g, no, c.says)
			}
			continue
		}
		bw, _ := c.pol.Assign(r, c.sigma)
		want, _ := request.NewGrant(r, c.sigma, bw)
		if g != want || c.store.got != want || no.Err != nil {
			t.Errorf("%s: granted %+v, booked %+v, want %+v", c.name, g, c.store.got, want)
		}
	}
	// The booker's own error is what Capacity carries.
	if _, no := admit.At(&recorder{err: full}, policy.MinRate(), r, 10); !errors.Is(no.Err, full) {
		t.Errorf("capacity refusal wraps %v, want the booker's error", no.Err)
	}
}
