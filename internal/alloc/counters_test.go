package alloc

import (
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
		l := NewSharded(net)
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
			if lFits := l.Reserve(r, g) == nil; cFits != lFits {
				return false
			}
			if cFits {
				if c.Acquire(r.Ingress, r.Egress, bw) != nil {
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
