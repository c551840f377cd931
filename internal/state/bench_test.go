package state

import (
	"fmt"
	"math/rand"
	"testing"

	"gridbw/internal/admit"
	"gridbw/internal/des"
	"gridbw/internal/hold"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// recordTrace runs a live machine through steps seeded arrivals — two-sided
// admissions, cancels, and ingress holds that are confirmed, aborted or left
// to lapse — on a service clock that fires their expiries, and returns the
// records it logged, in log order.
func recordTrace(tb testing.TB, net *topology.Network, steps int) []trace.Event {
	rng := rand.New(rand.NewSource(1))
	m := New(net, policy.MinRate(), 1<<20)
	sim := des.New()
	m.Arm = func(at units.Time, fn des.Event) des.Handle { return sim.At(max(at, sim.Now()), fn) }
	var events []trace.Event
	m.Log = func(ev trace.Event) { events = append(events, ev) }
	var live []request.ID
	var holds []string
	for i := range steps {
		sim.RunUntil(units.Time(i) * 0.5)
		now := sim.Now()
		switch k := rng.Intn(10); {
		case k < 6:
			r := request.Request{
				ID:      m.NextID,
				Ingress: topology.PointID(rng.Intn(net.NumIngress())), Egress: topology.PointID(rng.Intn(net.NumEgress())),
				Start: now, Finish: now + units.Time(60+rng.Intn(100)),
				Volume: units.Volume(1+rng.Intn(20)) * units.GB, MaxRate: units.GBps,
			}
			m.NextID++
			tx := m.Ledger().Pair(r.Ingress, r.Egress)
			g, no := admit.At(tx, policy.MinRate(), r, r.Start)
			tx.Unlock()
			if no.Cause == admit.Admitted {
				m.Accept(now, r, g, fmt.Sprintf("k%d", i))
				live = append(live, r.ID)
			} else {
				m.Reject(now, r, no.String(), "")
			}
		case k < 7 && len(live) > 0:
			j := rng.Intn(len(live))
			m.Cancel(now, live[j]) // an expired one answers ErrFinished
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case k < 9:
			key := fmt.Sprintf("h%d", i)
			if _, err := m.HoldReserve(now, wire.HoldReserveJSON{
				Hold: key, Side: trace.HoldSideIngress, Point: rng.Intn(net.NumIngress()), PeerPoint: 0,
				TTLS: 5, VolumeBytes: float64(1+rng.Intn(20)) * 1e9, MaxRateBps: 1e9, DeadlineS: 60, RelTimes: true,
			}); err != nil {
				tb.Fatal(err)
			}
			holds = append(holds, key)
		case len(holds) > 0:
			kind := hold.Confirm
			if rng.Intn(3) == 0 {
				kind = hold.Abort
			}
			m.HoldStep(now, hold.Msg{Kind: kind, Key: holds[len(holds)-1]})
			holds = holds[:len(holds)-1]
		}
	}
	sim.Run()
	return events
}

// BenchmarkApply replays a fixed, seeded trace of accept, reject, cancel,
// expire and hold records into a fresh machine: what a boot pays per record
// of its WAL suffix, and a snapshot install per event.
func BenchmarkApply(b *testing.B) {
	net, err := topology.New(topology.Config{
		Ingress: []units.Bandwidth{units.GBps, units.GBps, units.GBps, units.GBps},
		Egress:  []units.Bandwidth{units.GBps, units.GBps, units.GBps, units.GBps},
	})
	if err != nil {
		b.Fatal(err)
	}
	events := recordTrace(b, net, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		m := New(net, policy.MinRate(), 1<<20)
		for _, ev := range events {
			if _, err := m.Apply(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/record")
	b.ReportMetric(float64(len(events)), "records")
}
