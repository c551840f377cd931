package alloc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"gridbw/internal/request"
	"gridbw/internal/rng"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

func TestShardedReserveBothSides(t *testing.T) {
	l := NewSharded(testNet())
	r := req(0, 0, 1)
	g := grant(t, r, 600*units.MBps)
	if err := l.Reserve(r, g); err != nil {
		t.Fatal(err)
	}
	in, eg := l.UsageAt(10)
	if in[0] != 600*units.MBps || eg[1] != 600*units.MBps {
		t.Errorf("usage in=%v eg=%v, want 600MB/s on route 0->1", in, eg)
	}
	if in[1] != 0 || eg[0] != 0 {
		t.Errorf("uninvolved points carry usage: in=%v eg=%v", in, eg)
	}
	if err := l.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestShardedEgressRefusalLeavesIngressUntouched(t *testing.T) {
	l := NewSharded(testNet())
	// Saturate egress 1 via ingress 1, then fail a 0->1 reservation.
	r0 := req(0, 1, 1)
	if err := l.Reserve(r0, grant(t, r0, 1*units.GBps)); err != nil {
		t.Fatal(err)
	}
	r1 := req(1, 0, 1)
	tx := l.Pair(0, 1)
	defer tx.Unlock()
	err := tx.Reserve(r1, grant(t, r1, 600*units.MBps))
	var ce *CapacityError
	if !errors.Is(err, ErrOverCapacity) || !errors.As(err, &ce) || ce.Dir != topology.Egress || ce.Point != 1 {
		t.Fatalf("reservation on saturated egress: %v, want a *CapacityError naming egress 1", err)
	}
	// Both sides are judged before either is booked: the ingress profile
	// was never written to.
	if got, bps := tx.Ingress().UsedAt(10), tx.Ingress().Breakpoints(); got != 0 || bps != 1 {
		t.Errorf("refused reservation left ingress 0 at %v with %d breakpoints", got, bps)
	}
}

// TestLedgerReserveBothSides: one booking through the ledger's own Reserve
// lands on exactly the ingress and the egress of its route.
func TestLedgerReserveBothSides(t *testing.T) {
	l := NewSharded(testNet())
	r := req(0, 0, 1)
	g := grant(t, r, 600*units.MBps)
	if err := l.Reserve(r, g); err != nil {
		t.Fatal(err)
	}
	if got := l.UsedAt(topology.Ingress, 0, 10); got != 600*units.MBps {
		t.Errorf("ingress usage = %v", got)
	}
	if got := l.UsedAt(topology.Egress, 1, 10); got != 600*units.MBps {
		t.Errorf("egress usage = %v", got)
	}
	if got := l.UsedAt(topology.Ingress, 1, 10); got != 0 {
		t.Errorf("uninvolved ingress usage = %v", got)
	}
	if got := l.UsedAt(topology.Egress, 0, 10); got != 0 {
		t.Errorf("uninvolved egress usage = %v", got)
	}
}

// TestLedgerEgressRefusalLeavesIngressUntouched: the ledger's own Reserve
// refuses a booking its egress cannot carry with a typed error, and books
// neither side of it.
func TestLedgerEgressRefusalLeavesIngressUntouched(t *testing.T) {
	l := NewSharded(testNet())
	// Saturate egress 1 via a different ingress.
	r0 := req(0, 1, 1)
	if err := l.Reserve(r0, grant(t, r0, 1*units.GBps)); err != nil {
		t.Fatal(err)
	}
	// Now ingress 0 has room but egress 1 does not.
	r1 := req(1, 0, 1)
	g1 := grant(t, r1, 500*units.MBps)
	err := l.Reserve(r1, g1)
	if err == nil {
		t.Fatal("overlapping egress reservation accepted")
	}
	// The refusal is typed, names the point, and renders the full text.
	var ce *CapacityError
	if !errors.Is(err, ErrOverCapacity) || !errors.As(err, &ce) {
		t.Fatalf("refusal %v (%T) is not a *CapacityError matching ErrOverCapacity", err, err)
	}
	if ce.Dir != topology.Egress || ce.Point != 1 || ce.Want != 500*units.MBps || ce.Used != 1*units.GBps || ce.Cap != 1*units.GBps {
		t.Errorf("refusal fields = %+v", *ce)
	}
	want := fmt.Sprintf("alloc: egress 1: alloc: reserving 500MB/s on [%v, %v) exceeds capacity 1GB/s (used 1GB/s)", g1.Sigma, g1.Tau)
	if err.Error() != want {
		t.Errorf("refusal text %q, want %q", err, want)
	}
	tx := l.Pair(0, 1)
	defer tx.Unlock()
	if got, bps := tx.Ingress().UsedAt(10), tx.Ingress().Breakpoints(); got != 0 || bps != 1 {
		t.Errorf("refused reservation left ingress 0 at %v with %d breakpoints", got, bps)
	}
	// Only the first booking stands on egress 1.
	if got := tx.Egress().UsedAt(10); got != 1*units.GBps {
		t.Errorf("egress 1 usage = %v, want 1GB/s", got)
	}
}

func TestShardedRevoke(t *testing.T) {
	l := NewSharded(testNet())
	r := req(0, 0, 1)
	g := grant(t, r, 600*units.MBps)
	if err := l.Reserve(r, g); err != nil {
		t.Fatal(err)
	}
	l.Revoke(r, g, 0)
	in, eg := l.UsageAt(10)
	if in[0] != 0 || eg[1] != 0 {
		t.Errorf("usage after revoke: in=%v eg=%v", in, eg)
	}
	// The ledger keeps no registry, so a second give-back of the same grant
	// is caught by the profile it would drive below zero.
	defer func() {
		if recover() == nil {
			t.Error("double revoke did not panic")
		}
	}()
	l.Revoke(r, g, 0)
}

// TestLedgerRevoke: a caller with no clock (the planner, the exact solvers)
// gives a grant back at −∞: the whole grant is released, nothing is
// forgotten, and the capacity books again.
func TestLedgerRevoke(t *testing.T) {
	l := NewSharded(testNet())
	r := req(0, 0, 1)
	g := grant(t, r, 1*units.GBps)
	if err := l.Reserve(r, g); err != nil {
		t.Fatal(err)
	}
	l.Revoke(r, g, units.Time(math.Inf(-1)))
	if in, eg := l.UsageAt(10); in[0] != 0 || eg[1] != 0 {
		t.Errorf("revoke did not free capacity: in=%v eg=%v", in, eg)
	}
	tx := l.Pair(0, 1)
	if fi, fe := tx.Ingress().floor, tx.Egress().floor; !math.IsInf(float64(fi), -1) || !math.IsInf(float64(fe), -1) {
		t.Errorf("revoke at −∞ moved the floors to %v, %v", fi, fe)
	}
	tx.Unlock()
	if err := l.Reserve(r, g); err != nil {
		t.Errorf("re-reserve after revoke failed: %v", err)
	}
}

func TestLedgerRevokeUnknownPanics(t *testing.T) {
	l := NewSharded(testNet())
	r := req(0, 0, 0)
	g := grant(t, r, 500*units.MBps)
	defer func() {
		if recover() == nil {
			t.Fatal("revoking a grant never booked did not panic")
		}
	}()
	l.Revoke(r, g, units.Time(math.Inf(-1)))
}

// TestLedgerRejectsMismatchedGrant: a grant books only for the request it
// was made for. (The ledger keeps no registry, so it cannot refuse a second
// booking of the same request: every caller books a request once and
// remembers its grant.)
func TestLedgerRejectsMismatchedGrant(t *testing.T) {
	l := NewSharded(testNet())
	r := req(0, 0, 0)
	g := grant(t, r, 500*units.MBps)
	other := req(1, 0, 0)
	if err := l.Reserve(other, g); err == nil {
		t.Error("mismatched grant accepted")
	}
	if in, eg := l.UsageAt(10); in[0] != 0 || eg[0] != 0 {
		t.Errorf("refused grant booked: in=%v eg=%v", in, eg)
	}
}

// TestLedgerEquationOneProperty: any sequence of accepted reservations
// keeps every point within capacity at every instant — the paper's
// equation (1) — and a reservation books exactly when both of its points
// fit it.
func TestLedgerEquationOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		net := topology.Uniform(3, 3, 1*units.GBps)
		l := NewSharded(net)
		id := 0
		for step := 0; step < 200; step++ {
			start := units.Time(src.Intn(500))
			dur := units.Time(src.Intn(100) + 1)
			bw := units.Bandwidth(src.Intn(1000)+1) * units.MBps
			r := request.Request{
				ID:      request.ID(id),
				Ingress: topology.PointID(src.Intn(3)),
				Egress:  topology.PointID(src.Intn(3)),
				Start:   start, Finish: start + dur,
				Volume:  bw.For(dur),
				MaxRate: bw,
			}
			g, err := request.NewGrant(r, r.Start, bw)
			if err != nil {
				return false
			}
			tx := l.Pair(r.Ingress, r.Egress)
			fits := tx.Ingress().Fits(g.Sigma, g.Tau, bw) && tx.Egress().Fits(g.Sigma, g.Tau, bw)
			booked := tx.Reserve(r, g) == nil
			tx.Unlock()
			if fits != booked {
				return false // Reserve must agree with both profiles
			}
			if booked {
				id++
			}
		}
		return l.CheckInvariant() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLedgerUsageAt(t *testing.T) {
	l := NewSharded(testNet())
	r0 := req(0, 0, 1)
	r1 := req(1, 1, 0)
	if err := l.Reserve(r0, grant(t, r0, 600*units.MBps)); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(r1, grant(t, r1, 500*units.MBps)); err != nil {
		t.Fatal(err)
	}
	in, eg := l.UsageAt(10)
	if len(in) != 2 || len(eg) != 2 {
		t.Fatalf("UsageAt sizes = %d, %d; want 2, 2", len(in), len(eg))
	}
	if in[0] != 600*units.MBps || in[1] != 500*units.MBps {
		t.Errorf("ingress usage = %v", in)
	}
	if eg[0] != 500*units.MBps || eg[1] != 600*units.MBps {
		t.Errorf("egress usage = %v", eg)
	}
	// Past the grants' windows everything is free again.
	in, eg = l.UsageAt(200)
	for i := range in {
		if in[i] != 0 {
			t.Errorf("ingress %d usage at 200 = %v, want 0", i, in[i])
		}
	}
	for e := range eg {
		if eg[e] != 0 {
			t.Errorf("egress %d usage at 200 = %v, want 0", e, eg[e])
		}
	}
}

func TestPairTxSemantics(t *testing.T) {
	l := NewSharded(testNet())
	tx := l.Pair(0, 1)
	if !tx.Covers(0, 1) || tx.Covers(1, 1) || tx.Covers(0, 0) {
		t.Error("Covers misreports the locked route")
	}
	if got := tx.Ingress().Capacity(); got != 1*units.GBps {
		t.Errorf("ingress capacity through tx = %v", got)
	}
	r := req(0, 0, 1)
	if err := tx.Reserve(r, grant(t, r, 600*units.MBps)); err != nil {
		t.Fatal(err)
	}
	// A request routed outside the pair must be refused, not misapplied.
	other := req(1, 1, 0)
	if err := tx.Reserve(other, grant(t, other, 600*units.MBps)); err == nil {
		t.Error("reservation outside the locked pair accepted")
	}
	tx.Unlock()
	defer func() {
		if recover() == nil {
			t.Error("double unlock did not panic")
		}
	}()
	tx.Unlock()
}

// TestShardedParallelDisjointPairs hammers every disjoint route of an 8x8
// network from its own goroutine — reserve, audit, revoke — and checks the
// cross-shard invariant audit never observes an inconsistent cut.
func TestShardedParallelDisjointPairs(t *testing.T) {
	const points, perRoute = 8, 50
	net := topology.Uniform(points, points, 1*units.GBps)
	l := NewSharded(net)
	var wg sync.WaitGroup
	for p := 0; p < points; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perRoute; k++ {
				r := request.Request{
					ID:      request.ID(p*perRoute + k),
					Ingress: topology.PointID(p), Egress: topology.PointID(p),
					Start: 0, Finish: 100,
					Volume: 1 * units.GB, MaxRate: 100 * units.MBps,
				}
				g, err := request.NewGrant(r, units.Time(k), 100*units.MBps)
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Reserve(r, g); err != nil {
					t.Error(err)
					return
				}
				if k%2 == 0 {
					l.Revoke(r, g, units.Time(k))
				}
			}
		}(p)
	}
	// Concurrent audits: CheckInvariant locks everything, so it must see
	// either both sides of each reservation or neither.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := l.CheckInvariant(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := l.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Every route keeps exactly its odd-k grants, each 100 MB/s over
	// [k, k+10): the profiles past the last revoke's floor carry them and
	// nothing else.
	for tt := units.Time(perRoute-2) + 0.25; tt < perRoute+10; tt += 0.5 {
		live := 0
		for k := 1; k < perRoute; k += 2 {
			if units.Time(k) <= tt && tt < units.Time(k+10) {
				live++
			}
		}
		want := units.Bandwidth(live) * 100 * units.MBps
		in, eg := l.UsageAt(tt)
		for p := 0; p < points; p++ {
			if !units.ApproxEq(float64(in[p]), float64(want)) || !units.ApproxEq(float64(eg[p]), float64(want)) {
				t.Fatalf("route %d at %v: in %v, eg %v, want %v", p, tt, in[p], eg[p], want)
			}
		}
	}
}

func TestShardedStats(t *testing.T) {
	l := NewSharded(testNet())
	r := req(0, 0, 1)
	if err := l.Reserve(r, grant(t, r, 600*units.MBps)); err != nil {
		t.Fatal(err)
	}
	stats := l.Stats()
	if len(stats) != 4 {
		t.Fatalf("Stats returned %d shards, want 4", len(stats))
	}
	byPoint := make(map[topology.Direction]map[topology.PointID]ShardStat)
	for _, st := range stats {
		if byPoint[st.Dir] == nil {
			byPoint[st.Dir] = make(map[topology.PointID]ShardStat)
		}
		byPoint[st.Dir][st.Point] = st
	}
	if byPoint[topology.Ingress][0].Locks == 0 {
		t.Error("ingress 0 shows no lock acquisitions after a reservation")
	}
	if byPoint[topology.Egress][1].Locks == 0 {
		t.Error("egress 1 shows no lock acquisitions after a reservation")
	}
	if byPoint[topology.Ingress][1].Locks != 0 {
		t.Error("uninvolved ingress 1 shows lock traffic")
	}
}

// TestShardedUsedAtReadsOnePoint: the one-point read agrees with UsageAt at
// every point and instant, on both sides of a booking's half-open span, and
// locks only the point it reads.
func TestShardedUsedAtReadsOnePoint(t *testing.T) {
	l := NewSharded(testNet())
	if err := l.HoldReserve(topology.Ingress, 1, 10, 20, 300*units.MBps); err != nil {
		t.Fatal(err)
	}
	if err := l.HoldReserve(topology.Egress, 0, 5, 15, 700*units.MBps); err != nil {
		t.Fatal(err)
	}
	for _, at := range []units.Time{0, 5, 10, 15, 20, 25} {
		in, eg := l.UsageAt(at)
		for p := range in {
			if got := l.UsedAt(topology.Ingress, topology.PointID(p), at); got != in[p] {
				t.Errorf("UsedAt(ingress %d, %v) = %v, UsageAt says %v", p, at, got, in[p])
			}
		}
		for p := range eg {
			if got := l.UsedAt(topology.Egress, topology.PointID(p), at); got != eg[p] {
				t.Errorf("UsedAt(egress %d, %v) = %v, UsageAt says %v", p, at, got, eg[p])
			}
		}
	}
	if got := l.UsedAt(topology.Ingress, 1, 19.5); got != 300*units.MBps {
		t.Errorf("inside the span: %v, want 300MB/s", got)
	}
	if got := l.UsedAt(topology.Egress, 0, 15); got != 0 {
		t.Errorf("at the span's end: %v, want 0", got)
	}
	before := l.Stats()
	l.UsedAt(topology.Egress, 1, 0)
	for i, st := range l.Stats() {
		want := before[i].Locks
		if st.Dir == topology.Egress && st.Point == 1 {
			want++
		}
		if st.Locks != want {
			t.Errorf("%v %d: %d lock acquisitions, want %d", st.Dir, st.Point, st.Locks, want)
		}
	}
}

// TestShardedCancelAheadNeverTrimsPastTheClock: cancelling a booked-ahead
// grant before its σ trims both points to the clock, not to σ, so what the
// points book between now and σ still counts, and the grant comes back whole.
func TestShardedCancelAheadNeverTrimsPastTheClock(t *testing.T) {
	l := NewSharded(testNet())
	busy := req(0, 0, 1) // 1 GB/s on ingress 0 and egress 1 over [0, 50)
	if err := l.Reserve(busy, grant(t, busy, 1*units.GBps)); err != nil {
		t.Fatal(err)
	}
	ahead := req(1, 0, 1)
	ahead.Start, ahead.Finish = 200, 300
	aheadGrant := grant(t, ahead, 500*units.MBps)
	if err := l.Reserve(ahead, aheadGrant); err != nil {
		t.Fatal(err)
	}
	l.Revoke(ahead, aheadGrant, 10) // a cancel at now = 10
	for _, sh := range []*shard{l.in[0], l.eg[1]} {
		if sh.p.floor != 10 {
			t.Errorf("floor after the cancel = %v, want the clock's 10", sh.p.floor)
		}
	}
	in, eg := l.UsageAt(20)
	if in[0] != 1*units.GBps || eg[1] != 1*units.GBps {
		t.Errorf("usage at 20 = %v / %v: the booking before σ was forgotten", in, eg)
	}
	in, eg = l.UsageAt(250)
	if in[0] != 0 || eg[1] != 0 {
		t.Errorf("usage at 250 = %v / %v after the cancel", in, eg)
	}
	late := req(2, 0, 1)
	if err := l.Reserve(late, request.Grant{Request: 2, Bandwidth: 100 * units.MBps, Sigma: 20, Tau: 30}); !errors.Is(err, ErrOverCapacity) {
		t.Errorf("a booking inside the busy span = %v, want a refusal", err)
	}
	if err := l.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedExpiryIsBoundedByWhatIsLive: grants that overlap and expire in
// τ order, each revoked at its τ, leave the profiles no deeper than the live
// grants' breakpoints and one block per point, however many ran their course.
func TestShardedExpiryIsBoundedByWhatIsLive(t *testing.T) {
	const live = 40
	l := NewSharded(testNet())
	var window []request.Grant
	for i := 0; i < 20000; i++ {
		r := req(i, 0, 1)
		// Rates that are not whole numbers leave float residue when released.
		g := request.Grant{Request: r.ID, Bandwidth: units.Bandwidth(1e7 * (1 + float64(i%13)/7)), Sigma: units.Time(i), Tau: units.Time(i + live)}
		if err := l.Reserve(r, g); err != nil {
			t.Fatal(err)
		}
		window = append(window, g)
		if len(window) == live {
			l.Revoke(req(int(window[0].Request), 0, 1), window[0], window[0].Tau)
			window = window[1:]
		}
	}
	if bps, most := l.Breakpoints(), 4*(2*live+blockCap); bps > most {
		t.Errorf("%d breakpoints over 4 points with %d grants live, want at most %d", bps, live-1, most)
	}
	if err := l.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestOnePointCallsAllocateNothing: the one-point calls of the cross-shard
// hold path — a hold's booking and release, the floor check before it, the
// status page's usage read and a caller-owned PointTx — allocate nothing.
func TestOnePointCallsAllocateNothing(t *testing.T) {
	l := NewSharded(testNet())
	var tx PointTx
	var floor units.Time
	var used units.Bandwidth
	allocs := map[string]float64{
		"HoldReserve+HoldRelease": testing.AllocsPerRun(100, func() {
			if err := l.HoldReserve(topology.Egress, 1, 10, 20, 100*units.MBps); err != nil {
				t.Fatal(err)
			}
			l.HoldRelease(topology.Egress, 1, 10, 20, 100*units.MBps, units.Time(math.Inf(-1)))
		}),
		"Floor":  testing.AllocsPerRun(100, func() { floor = l.Floor(topology.Ingress, 0) }),
		"UsedAt": testing.AllocsPerRun(100, func() { used = l.UsedAt(topology.Egress, 1, 15) }),
		"LockPointTx": testing.AllocsPerRun(100, func() {
			l.LockPointTx(&tx, topology.Ingress, 1)
			_ = tx.Profile()
			tx.Unlock()
		}),
	}
	for name, n := range allocs {
		if n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
	if floor > 0 || used != 0 {
		t.Errorf("floor %v, used %v after a released hold: want an untouched point", floor, used)
	}
	if err := l.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

// TestLockPointTxBooksOnePoint: a reused PointTx books on the point it was
// last locked onto, refuses naming that point, and its Unlock lets the
// next LockPointTx re-lock it.
func TestLockPointTxBooksOnePoint(t *testing.T) {
	l := NewSharded(testNet())
	var tx PointTx
	r := req(0, 0, 1)
	g := grant(t, r, 600*units.MBps)
	for _, p := range []topology.PointID{0, 1} {
		l.LockPointTx(&tx, topology.Egress, p)
		if err := tx.Reserve(r, g); err != nil {
			t.Fatalf("egress %d: %v", p, err)
		}
		tx.Unlock()
	}
	l.LockPointTx(&tx, topology.Egress, 1)
	err := tx.Reserve(r, g)
	tx.Unlock()
	var ce *CapacityError
	if !errors.As(err, &ce) || ce.Dir != topology.Egress || ce.Point != 1 {
		t.Fatalf("second booking on egress 1: %v, want a *CapacityError naming egress 1", err)
	}
	in, eg := l.UsageAt(10)
	if in[0] != 0 || in[1] != 0 || eg[0] != 600*units.MBps || eg[1] != 600*units.MBps {
		t.Errorf("usage in=%v eg=%v, want 600MB/s on both egress points only", in, eg)
	}
}
