package alloc

import (
	"errors"
	"sync"
	"testing"

	"gridbw/internal/request"
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
	if l.NumGranted() != 1 {
		t.Errorf("NumGranted = %d", l.NumGranted())
	}
	if _, ok := l.Grant(0, 0); !ok {
		t.Error("grant not recorded on ingress shard")
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

func TestShardedRevoke(t *testing.T) {
	l := NewSharded(testNet())
	r := req(0, 0, 1)
	g := grant(t, r, 600*units.MBps)
	if err := l.Reserve(r, g); err != nil {
		t.Fatal(err)
	}
	if got := l.Revoke(r, 0); got != g {
		t.Errorf("Revoke returned %+v, want %+v", got, g)
	}
	in, eg := l.UsageAt(10)
	if in[0] != 0 || eg[1] != 0 {
		t.Errorf("usage after revoke: in=%v eg=%v", in, eg)
	}
	defer func() {
		if recover() == nil {
			t.Error("double revoke did not panic")
		}
	}()
	l.Revoke(r, 0)
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
					l.Revoke(r, units.Time(k))
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
	if want := points * perRoute / 2; l.NumGranted() != want {
		t.Errorf("NumGranted = %d, want %d", l.NumGranted(), want)
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
	if err := l.Reserve(ahead, grant(t, ahead, 500*units.MBps)); err != nil {
		t.Fatal(err)
	}
	l.Revoke(ahead, 10) // a cancel at now = 10
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
	var window []request.Request
	for i := 0; i < 20000; i++ {
		r := req(i, 0, 1)
		// Rates that are not whole numbers leave float residue when released.
		g := request.Grant{Request: r.ID, Bandwidth: units.Bandwidth(1e7 * (1 + float64(i%13)/7)), Sigma: units.Time(i), Tau: units.Time(i + live)}
		if err := l.Reserve(r, g); err != nil {
			t.Fatal(err)
		}
		window = append(window, r)
		if len(window) == live {
			l.Revoke(window[0], units.Time(window[0].ID+live))
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
