package alloc

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"gridbw/internal/request"
	"gridbw/internal/rng"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

func testNet() *topology.Network {
	return topology.Uniform(2, 2, 1*units.GBps)
}

func req(id int, in, eg topology.PointID) request.Request {
	return request.Request{
		ID: request.ID(id), Ingress: in, Egress: eg,
		Start: 0, Finish: 100, Volume: 50 * units.GB, MaxRate: 1 * units.GBps,
	}
}

func grant(t *testing.T, r request.Request, bw units.Bandwidth) request.Grant {
	t.Helper()
	g, err := request.NewGrant(r, r.Start, bw)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLedgerReserveBothSides(t *testing.T) {
	l := NewLedger(testNet())
	r := req(0, 0, 1)
	g := grant(t, r, 600*units.MBps)
	if err := l.Reserve(r, g); err != nil {
		t.Fatal(err)
	}
	if got := l.Ingress(0).UsedAt(10); got != 600*units.MBps {
		t.Errorf("ingress usage = %v", got)
	}
	if got := l.Egress(1).UsedAt(10); got != 600*units.MBps {
		t.Errorf("egress usage = %v", got)
	}
	if got := l.Ingress(1).UsedAt(10); got != 0 {
		t.Errorf("uninvolved ingress usage = %v", got)
	}
	if l.NumGranted() != 1 {
		t.Errorf("NumGranted = %d", l.NumGranted())
	}
	if _, ok := l.Grant(0); !ok {
		t.Error("grant not recorded")
	}
}

func TestLedgerEgressRefusalLeavesIngressUntouched(t *testing.T) {
	l := NewLedger(testNet())
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
	if got, bps := l.Ingress(0).UsedAt(10), l.Ingress(0).Breakpoints(); got != 0 || bps != 1 {
		t.Errorf("refused reservation left ingress 0 at %v with %d breakpoints", got, bps)
	}
	if l.NumGranted() != 1 {
		t.Errorf("NumGranted = %d", l.NumGranted())
	}
}

func TestLedgerRejectsDuplicateAndMismatched(t *testing.T) {
	l := NewLedger(testNet())
	r := req(0, 0, 0)
	g := grant(t, r, 500*units.MBps)
	if err := l.Reserve(r, g); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(r, g); err == nil {
		t.Error("duplicate grant accepted")
	}
	other := req(1, 0, 0)
	if err := l.Reserve(other, g); err == nil {
		t.Error("mismatched grant accepted")
	}
}

func TestLedgerRevoke(t *testing.T) {
	l := NewLedger(testNet())
	r := req(0, 0, 1)
	g := grant(t, r, 1*units.GBps)
	if err := l.Reserve(r, g); err != nil {
		t.Fatal(err)
	}
	got := l.Revoke(r)
	if got != g {
		t.Errorf("Revoke returned %+v", got)
	}
	if l.Ingress(0).UsedAt(10) != 0 || l.Egress(1).UsedAt(10) != 0 {
		t.Error("revoke did not free capacity")
	}
	if _, ok := l.Grant(0); ok {
		t.Error("grant still recorded after revoke")
	}
	// Capacity is reusable.
	if err := l.Reserve(r, g); err != nil {
		t.Errorf("re-reserve after revoke failed: %v", err)
	}
}

func TestLedgerRevokeUnknownPanics(t *testing.T) {
	l := NewLedger(testNet())
	defer func() {
		if recover() == nil {
			t.Fatal("revoking unknown request did not panic")
		}
	}()
	l.Revoke(req(0, 0, 0))
}

func TestLedgerGrantsCopy(t *testing.T) {
	l := NewLedger(testNet())
	r := req(0, 0, 0)
	if err := l.Reserve(r, grant(t, r, 500*units.MBps)); err != nil {
		t.Fatal(err)
	}
	m := l.Grants()
	delete(m, 0)
	if l.NumGranted() != 1 {
		t.Error("Grants leaked internal map")
	}
}

// TestLedgerEquationOneProperty: any sequence of accepted reservations
// keeps every point within capacity at every instant — the paper's
// equation (1).
func TestLedgerEquationOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		net := topology.Uniform(3, 3, 1*units.GBps)
		l := NewLedger(net)
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
			if l.Fits(r, g) {
				if err := l.Reserve(r, g); err != nil {
					return false // Fits promised success
				}
				id++
			} else if err := l.Reserve(r, g); err == nil {
				return false // Reserve must agree with Fits
			}
		}
		return l.CheckInvariant() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCounters(t *testing.T) {
	net := testNet()
	c := NewCounters(net)
	if err := c.Acquire(0, 1, 600*units.MBps); err != nil {
		t.Fatal(err)
	}
	if c.Ali(0) != 600*units.MBps || c.Ale(1) != 600*units.MBps {
		t.Error("counters wrong after acquire")
	}
	if c.Ali(1) != 0 || c.Ale(0) != 0 {
		t.Error("uninvolved counters changed")
	}
	if err := c.Acquire(0, 1, 500*units.MBps); err == nil {
		t.Error("over-capacity acquire accepted")
	}
	if c.Ali(0) != 600*units.MBps {
		t.Error("failed acquire changed state")
	}
	c.ReleasePair(0, 1, 600*units.MBps)
	if c.Ali(0) != 0 || c.Ale(1) != 0 {
		t.Error("release did not zero counters")
	}
}

func TestCountersUtilization(t *testing.T) {
	c := NewCounters(testNet())
	if err := c.Acquire(0, 0, 250*units.MBps); err != nil {
		t.Fatal(err)
	}
	if got := c.UtilizationIn(0); !units.ApproxEq(got, 0.25) {
		t.Errorf("UtilizationIn = %v", got)
	}
	if got := c.UtilizationOut(0); !units.ApproxEq(got, 0.25) {
		t.Errorf("UtilizationOut = %v", got)
	}
	if got := c.UtilizationIn(1); got != 0 {
		t.Errorf("idle UtilizationIn = %v", got)
	}
}

func TestCountersZeroCapacity(t *testing.T) {
	net, err := topology.New(topology.Config{
		Ingress: []units.Bandwidth{0},
		Egress:  []units.Bandwidth{1 * units.GBps},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounters(net)
	if c.UtilizationIn(0) != 0 {
		t.Error("zero-capacity utilization not 0")
	}
	if err := c.Acquire(0, 0, 1); err == nil {
		t.Error("acquire on zero-capacity point accepted")
	}
	if err := c.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestCountersOverReleasePanics(t *testing.T) {
	c := NewCounters(testNet())
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	c.ReleasePair(0, 0, 1*units.GBps)
}

func TestCountersNegativeArgsPanic(t *testing.T) {
	c := NewCounters(testNet())
	for _, f := range []func(){
		func() { _ = c.Acquire(0, 0, -1) },
		func() { c.ReleasePair(0, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative arg did not panic")
				}
			}()
			f()
		}()
	}
}

// TestCountersMatchProfileSemantics: for on-line (current-instant)
// workloads the counter admission decision must equal the profile
// admission decision — the ablation claim of DESIGN.md §5.1.
func TestCountersMatchProfileSemantics(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		net := topology.Uniform(2, 2, 1*units.GBps)
		c := NewCounters(net)
		l := NewLedger(net)
		type live struct {
			r request.Request
			g request.Grant
		}
		now := units.Time(0)
		var active []live
		id := 0
		for step := 0; step < 150; step++ {
			now += units.Time(src.Uniform(0, 5))
			// Expire finished transfers from the counters.
			kept := active[:0]
			for _, a := range active {
				if a.g.Tau <= now {
					c.ReleasePair(a.r.Ingress, a.r.Egress, a.g.Bandwidth)
				} else {
					kept = append(kept, a)
				}
			}
			active = kept
			dur := units.Time(src.Intn(30) + 1)
			bw := units.Bandwidth(src.Intn(800)+1) * units.MBps
			r := request.Request{
				ID:      request.ID(id),
				Ingress: topology.PointID(src.Intn(2)),
				Egress:  topology.PointID(src.Intn(2)),
				Start:   now, Finish: now + dur,
				Volume:  bw.For(dur),
				MaxRate: bw,
			}
			g, err := request.NewGrant(r, now, bw)
			if err != nil {
				return false
			}
			cFits := c.Fits(r.Ingress, r.Egress, bw)
			lFits := l.Fits(r, g)
			if cFits != lFits {
				return false
			}
			if cFits {
				if c.Acquire(r.Ingress, r.Egress, bw) != nil {
					return false
				}
				if l.Reserve(r, g) != nil {
					return false
				}
				active = append(active, live{r, g})
				id++
			}
		}
		return c.CheckInvariant() == nil && l.CheckInvariant() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLedgerUsageAt(t *testing.T) {
	l := NewLedger(testNet())
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
