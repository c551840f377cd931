package server_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// A batch is decided in (ingress, egress, input) order at one instant —
// not in the paper's arrival order with its smaller-MinRate tie-break
// (DESIGN.md, "The admission step"). These tests pin that order from the
// outside: anything that keeps it keeps every decision.

type verdict struct {
	accepted   bool
	rate       units.Bandwidth
	sigma, tau units.Time
}

func verdictOf(t *testing.T, res server.BatchResult) verdict {
	t.Helper()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	d := res.Decision
	return verdict{d.Accepted, d.Rate, d.Sigma, d.Tau}
}

func pairOrder(a, b server.Submission) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

func TestBatchDecidesLikeItsItemsInPairOrder(t *testing.T) {
	const warm, rounds = 150, 60 // occupancy needs ~10k decisions before batches compete
	// Four daemons on one clock, fed the same traffic in four shapes.
	clk := &fakeClock{}
	var whole, single, split, permuted *server.Server
	for _, srv := range []**server.Server{&whole, &single, &split, &permuted} {
		*srv = denseServerOn(t, clk)
	}
	gen := newDenseGen(11)
	rng := rand.New(rand.NewSource(12))
	subs := make([]server.Submission, denseBatch)
	submit := func(srv *server.Server, subs []server.Submission) []server.BatchResult {
		t.Helper()
		res, err := srv.SubmitBatch(subs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i := 0; i < warm; i++ {
		gen.batch(subs, clk, whole)
		for _, srv := range []*server.Server{whole, single, split, permuted} {
			submit(srv, subs)
		}
	}

	accepted, refused := 0, 0
	for round := 0; round < rounds; round++ {
		gen.batch(subs, clk, whole)
		want := make([]verdict, len(subs))
		for i, res := range submit(whole, subs) {
			want[i] = verdictOf(t, res)
			if want[i].accepted {
				accepted++
			} else {
				refused++
			}
		}
		check := func(shape string, i int, res server.BatchResult) {
			t.Helper()
			if got := verdictOf(t, res); got != want[i] {
				t.Fatalf("round %d, item %d (%d->%d): %s decided %+v (%s), the whole batch %+v",
					round, i, subs[i].From, subs[i].To, shape, got, res.Decision.Reason, want[i])
			}
		}
		sorted := make([]int, len(subs))
		for i := range sorted {
			sorted[i] = i
		}
		slices.SortStableFunc(sorted, func(a, b int) int { return pairOrder(subs[a], subs[b]) })

		// One at a time, in the order the batch claims capacity in.
		for _, i := range sorted {
			check("one at a time", i, submit(single, subs[i:i+1])[0])
		}

		// Two calls, cut between two pairs: every item of the pairs up to the
		// cut, in input order, then the rest.
		cut := subs[sorted[len(sorted)/2]]
		var halves [2][]int
		for i, sub := range subs {
			h := 0
			if pairOrder(sub, cut) >= 0 {
				h = 1
			}
			halves[h] = append(halves[h], i)
		}
		for _, half := range halves {
			part := make([]server.Submission, len(half))
			for k, i := range half {
				part[k] = subs[i]
			}
			for k, res := range submit(split, part) {
				check("split between two pairs", half[k], res)
			}
		}

		// Shuffled, with the items of each pair left in their input order:
		// items of different pairs trade places freely.
		perm := rng.Perm(len(subs))
		slots := map[[2]int][]int{} // pair -> the positions its items land on, ascending
		for pos, i := range perm {
			p := [2]int{subs[i].From, subs[i].To}
			slots[p] = append(slots[p], pos)
		}
		at := make([]int, len(subs)) // position -> item
		for i, sub := range subs {
			p := [2]int{sub.From, sub.To}
			at[slots[p][0]], slots[p] = i, slots[p][1:]
		}
		shuffled := make([]server.Submission, len(subs))
		for pos, i := range at {
			shuffled[pos] = subs[i]
		}
		for pos, res := range submit(permuted, shuffled) {
			check("permuted", at[pos], res)
		}
	}
	t.Logf("%d rounds of %d: %d accepted, %d refused, the same in all four shapes", rounds, denseBatch, accepted, refused)
	if refused < rounds || accepted < rounds {
		t.Fatalf("%d accepted, %d refused: the batches do not compete for capacity", accepted, refused)
	}
	for _, srv := range []*server.Server{whole, single, split, permuted} {
		if err := srv.VerifyInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecidedAtOneInstant: a request is decided at max(NotBefore, now) and
// nowhere else. One whose window has room for a later start is refused all
// the same when that one instant is saturated on either side — singly, in a
// batch and as the ingress half of a cross-shard reserve — and the same
// request asking for the later start itself is a fixed rectangle that books.
func TestDecidedAtOneInstant(t *testing.T) {
	clk := &fakeClock{}
	srv := newTestServer(t, uniformConfig(clk))
	// One rigid transfer fills ingress 0 and egress 0 on [0, 100).
	full := server.Submission{From: 0, To: 0, Volume: 100 * units.GB, MaxRate: units.GBps, Deadline: 100}
	if d, err := srv.Submit(full); err != nil || !d.Accepted {
		t.Fatalf("saturating 0->0: %+v, %v", d, err)
	}
	// 10 GB by t=1000 at up to 1 GB/s: any start in [0, 990] meets the
	// deadline, and from t=100 on every route is idle.
	slack := func(from, to int, notBefore units.Time) server.Submission {
		return server.Submission{From: from, To: to, Volume: 10 * units.GB, MaxRate: units.GBps, NotBefore: notBefore, Deadline: 1000}
	}
	const saturated = "capacity saturated"

	for _, route := range [][2]int{{0, 1}, {1, 0}} { // ingress side full; egress side full
		if d, err := srv.Submit(slack(route[0], route[1], 0)); err != nil || d.Accepted || d.Reason != saturated {
			t.Errorf("single %v: %+v, %v; want refused at its one instant", route, d, err)
		}
	}
	res, err := srv.SubmitBatch([]server.Submission{slack(0, 1, 0), slack(1, 1, 0), slack(1, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for i, wantAccepted := range []bool{false, true, false} {
		if d := res[i].Decision; res[i].Err != nil || d.Accepted != wantAccepted || (!wantAccepted && d.Reason != saturated) {
			t.Errorf("batch item %d: %+v, %v; want accepted=%v", i, d, res[i].Err, wantAccepted)
		}
	}
	holds, err := srv.HoldReserve([]wire.HoldReserveJSON{
		{Hold: "now", Side: "in", Point: 0, PeerPoint: 1, VolumeBytes: 10e9, MaxRateBps: 1e9, DeadlineS: 1000},
		{Hold: "later", Side: "in", Point: 0, PeerPoint: 1, VolumeBytes: 10e9, MaxRateBps: 1e9, NotBeforeS: 100, DeadlineS: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if holds[0].Held || holds[0].Reason != "ingress capacity saturated" {
		t.Errorf("cross-shard reserve at the saturated instant: %+v", holds[0])
	}
	if !holds[1].Held || holds[1].SigmaS != 100 {
		t.Errorf("cross-shard reserve booked ahead to t=100: %+v", holds[1])
	}
	// The later start was there all along: asked for by name, it books, and
	// as a rectangle at exactly that instant.
	if d, err := srv.Submit(slack(1, 0, 100)); err != nil || !d.Accepted || d.Sigma != 100 || d.State != server.StateBooked {
		t.Errorf("book-ahead at t=100: %+v, %v", d, err)
	}
}
