package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// ledgerBreakpoints reads the gridbwd_ledger_breakpoints gauge off the
// daemon's text page, as an operator's scraper would.
func ledgerBreakpoints(t *testing.T, srv *server.Server) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/metricsz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "gridbwd_ledger_breakpoints "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("gauge line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no gridbwd_ledger_breakpoints on the page:\n%s", rec.Body.String())
	return 0
}

// Each live grant books its [σ, τ) on two profiles, at most two breakpoints
// on each; what else a profile stores is the float residue cancels leave
// ahead of the clock, until the clock passes it, and the block that covers
// the floor (64 breakpoints at most).
const (
	breakpointsPerLive  = 4
	breakpointsPerPoint = 64
)

// TestLedgerIsBoundedByWhatIsLive is the soak of the profile store under the
// daemon: 2^20 submissions (2^16 under the race detector) in batch_dense's
// shape — 64-item SubmitBatch calls, 30% booked ahead, four cancels a batch
// and every other grant expiring on the injected clock. Sixteen times along
// the way the ledger's breakpoints, read off the metrics page, must stay
// within breakpointsPerLive per live reservation plus breakpointsPerPoint per
// access point. The store plateaus near 3.5 per live grant from the second
// check on. A ledger that keeps its past grows with every submission decided
// instead: 7.7 per live grant at the first check, and climbing.
func TestLedgerIsBoundedByWhatIsLive(t *testing.T) {
	srv, clk := denseServer(t)
	gen := newDenseGen(11)
	rng := rand.New(rand.NewSource(12))
	subs := make([]server.Submission, denseBatch)
	type grant struct {
		id  request.ID
		tau units.Time
	}
	var live []grant
	total := 1 << 20
	if raceEnabled {
		total = 1 << 16
	}
	batches, checks := total/denseBatch, 16
	for batch := 1; batch <= batches; batch++ {
		gen.batch(subs, clk, srv)
		results, err := srv.SubmitBatch(subs)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if d := res.Decision; d.Accepted {
				live = append(live, grant{d.ID, d.Tau})
			}
		}
		now := srv.Now()
		for c := 0; c < 4 && len(live) > 0; c++ {
			k := rng.Intn(len(live))
			if live[k].tau > now {
				if _, err := srv.Cancel(live[k].id); err != nil {
					t.Fatalf("batch %d: cancel %d: %v", batch, live[k].id, err)
				}
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if batch%(batches/checks) != 0 {
			continue
		}
		kept := live[:0]
		for _, g := range live {
			if g.tau > now {
				kept = append(kept, g)
			}
		}
		live = kept
		st := srv.Status()
		if st.Booked+st.Active != len(live) {
			t.Fatalf("batch %d: daemon holds %d live reservations, the test counts %d", batch, st.Booked+st.Active, len(live))
		}
		bps := ledgerBreakpoints(t, srv)
		bound := breakpointsPerLive*len(live) + breakpointsPerPoint*len(st.Points)
		t.Logf("%8d submissions: %6d live, %7d breakpoints (%.2f per live grant), bound %d",
			batch*denseBatch, len(live), bps, float64(bps)/float64(max(len(live), 1)), bound)
		if bps > bound {
			t.Fatalf("after %d submissions the ledger stores %d breakpoints for %d live reservations over %d points, above %d",
				batch*denseBatch, bps, len(live), len(st.Points), bound)
		}
	}
	if err := srv.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBatchesRaceExpiriesAndCancels: four clients share every
// point pair of a dense daemon. Each submits batch_dense batches, advancing
// the injected clock, and cancels its own grants, so expiries — which trim
// the profiles under s.mu — and cancels run while other calls' admissions
// hold pair locks. The ledger must come out consistent with the registry
// (VerifyInvariant, on the state as the last call left it) and bounded by
// what is live. Run it under -race.
func TestConcurrentBatchesRaceExpiriesAndCancels(t *testing.T) {
	srv, clk := denseServer(t)
	clients, batches := 4, 1000
	if raceEnabled {
		batches = 100
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen, rng := newDenseGen(seed), rand.New(rand.NewSource(seed))
			subs := make([]server.Submission, denseBatch)
			var mine []request.ID
			for b := 0; b < batches; b++ {
				gen.batch(subs, clk, srv)
				results, err := srv.SubmitBatch(subs)
				if err != nil {
					t.Error(err)
					return
				}
				for _, res := range results {
					if res.Err != nil {
						t.Error(res.Err)
						return
					}
					if res.Decision.Accepted {
						mine = append(mine, res.Decision.ID)
					}
				}
				for k := 0; k < 4 && len(mine) > 0; k++ {
					i := rng.Intn(len(mine))
					// Another client's clock step may have expired it first.
					if _, err := srv.Cancel(mine[i]); err != nil && !errors.Is(err, server.ErrFinished) && !errors.Is(err, server.ErrNotFound) {
						t.Error(err)
						return
					}
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
			}
		}(int64(20 + c))
	}
	wg.Wait()
	if err := srv.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
	st := srv.Status()
	live := st.Booked + st.Active
	if bps, bound := ledgerBreakpoints(t, srv), breakpointsPerLive*live+breakpointsPerPoint*len(st.Points); bps > bound {
		t.Errorf("%d breakpoints for %d live reservations, above %d", bps, live, bound)
	}
	if st.Stats.Expired == 0 || st.Stats.Cancelled == 0 {
		t.Errorf("%d expiries and %d cancels: the run raced nothing", st.Stats.Expired, st.Stats.Cancelled)
	}
}

// TestEarlyGiveBackNeverTrimsAheadOfTheClock: a cancel and a hold abort of
// grants booked far ahead forget only what lies behind the clock. Were either
// to trim to the grant's σ, the saturated present before it would read as the
// empty instant σ, and a submission into it would be admitted on top of a
// full point.
func TestEarlyGiveBackNeverTrimsAheadOfTheClock(t *testing.T) {
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.Policy = "f=1"
	srv := newTestServer(t, cfg)
	clk.advance(10 * time.Second)
	// Ingress 0 and egress 0 are full from now to 110 s.
	full, err := srv.Submit(server.Submission{From: 0, To: 0, Volume: 100 * units.GB, MaxRate: units.GBps, Deadline: 300})
	if err != nil || !full.Accepted || full.Rate != units.GBps {
		t.Fatalf("filling submission = %+v, %v", full, err)
	}
	ahead, err := srv.Submit(server.Submission{From: 0, To: 1, Volume: 10 * units.GB, MaxRate: units.GBps, NotBefore: 500, Deadline: 600})
	if err != nil || ahead.State != server.StateBooked {
		t.Fatalf("booked-ahead submission = %+v, %v", ahead, err)
	}
	if _, err := srv.Cancel(ahead.ID); err != nil {
		t.Fatal(err)
	}
	for _, h := range []wire.HoldReserveJSON{
		{Hold: "in", Side: "in", Point: 0, PeerPoint: 1, VolumeBytes: 1e10, MaxRateBps: 1e9, NotBeforeS: 700, DeadlineS: 800},
		{Hold: "eg", Side: "eg", Point: 0, PeerPoint: 1, VolumeBytes: 1e10, MaxRateBps: 1e9, RateBps: 1e9, SigmaS: 700, TauS: 710},
	} {
		held, err := srv.HoldReserve([]wire.HoldReserveJSON{h})
		if err != nil || !held[0].Held {
			t.Fatalf("booked-ahead hold %s = %+v, %v", h.Hold, held, err)
		}
		if got, err := srv.HoldAbort([]wire.HoldRef{{Key: []byte(h.Hold)}}); err != nil || !got[0].Released {
			t.Fatalf("abort of hold %s = %+v, %v", h.Hold, got, err)
		}
	}
	clk.advance(time.Second)
	for _, sub := range []server.Submission{
		{From: 0, To: 1, Volume: units.GB, MaxRate: units.GBps, Deadline: 100}, // ingress 0
		{From: 1, To: 0, Volume: units.GB, MaxRate: units.GBps, Deadline: 100}, // egress 0
	} {
		if d, err := srv.Submit(sub); err != nil || d.Accepted {
			t.Errorf("submission %d->%d into the full present = %+v, %v; want a refusal", sub.From, sub.To, d, err)
		}
	}
	if err := srv.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestHoldWindowBehindTheFloorIsRefused: an egress RESERVE with absolute
// times whose whole window lies behind the point's floor has nothing left
// to be checked against. It must be refused, not granted over a span the
// profile no longer holds.
func TestHoldWindowBehindTheFloorIsRefused(t *testing.T) {
	clk := &fakeClock{}
	srv := newTestServer(t, uniformConfig(clk))
	clk.advance(10 * time.Second)
	// A cancel trims both points of its pair to the clock's 10 s.
	d, err := srv.Submit(server.Submission{From: 0, To: 1, Volume: units.GB, MaxRate: units.GBps, NotBefore: 50, Deadline: 100})
	if err != nil || !d.Accepted {
		t.Fatalf("booked-ahead submission = %+v, %v", d, err)
	}
	if _, err := srv.Cancel(d.ID); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sigma, tau float64
		held       bool
	}{
		{2, 5, false},  // wholly behind the floor
		{2, 10, false}, // ends on it
		{5, 15, true},  // straddles it: checked from the floor on
	} {
		key := fmt.Sprintf("eg-%v-%v", tc.sigma, tc.tau)
		got, err := srv.HoldReserve([]wire.HoldReserveJSON{{
			Hold: key, Side: "eg", Point: 1, PeerPoint: 0,
			VolumeBytes: 1e9, MaxRateBps: 1e9, RateBps: 1e8, SigmaS: tc.sigma, TauS: tc.tau,
		}})
		if err != nil || got[0].Held != tc.held {
			t.Errorf("hold over [%v, %v) = %+v, %v; want held %v", tc.sigma, tc.tau, got, err, tc.held)
		}
		if !tc.held && got[0].Reason != "proposed window already past" {
			t.Errorf("hold over [%v, %v) refused for %q", tc.sigma, tc.tau, got[0].Reason)
		}
	}
	if err := srv.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}
