package server_test

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"gridbw/internal/core"
	"gridbw/internal/request"
	"gridbw/internal/sched/flexible"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/workload"
)

// The missing oracle: the daemon and the paper-reproduction simulator take
// the same admission step (internal/admit), so on the same trace they must
// make the same decisions — the same requests accepted, at the same rate,
// over the same [σ, τ), compared with == and no tolerance.

// greedyTrace is a seeded flexible workload on the paper's platform at the
// given offered load, cut to n requests, with every arrival moved onto a
// multiple of quantum: the daemon reads time off a nanosecond clock, so an
// instant both sides can stand on exactly has to be one the clock can show.
// A coarse quantum also makes several requests arrive at one instant, which
// is where Algorithm 2's tie-break and its reclaim-before-admit order show.
func greedyTrace(tb testing.TB, seed int64, n int, load float64, quantum time.Duration) (workload.Config, *request.Set) {
	tb.Helper()
	cfg := workload.Default(workload.Flexible).WithLoad(load)
	cfg.Horizon = units.Time(2*n) * cfg.MeanInterArrival // twice the arrivals asked for, on average
	set, err := cfg.Generate(seed)
	if err != nil {
		tb.Fatal(err)
	}
	if set.Len() < n {
		tb.Fatalf("seed %d drew %d requests, want %d", seed, set.Len(), n)
	}
	reqs := set.All()[:n]
	for i := range reqs {
		ticks := math.Round(float64(reqs[i].Start) / quantum.Seconds())
		moved := units.Time((time.Duration(ticks) * quantum).Seconds())
		reqs[i].Start, reqs[i].Finish = moved, reqs[i].Finish+(moved-reqs[i].Start) // the window moves with its start
	}
	if set, err = request.NewSet(reqs); err != nil {
		tb.Fatal(err)
	}
	return cfg, set
}

// greedyOrder is the order Algorithm 2 decides a trace in: by arrival, ties
// by smaller MinRate, then by ID (flexible.Greedy.Schedule).
func greedyOrder(set *request.Set) []request.Request {
	order := set.All()
	slices.SortStableFunc(order, func(a, b request.Request) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.MinRate(), b.MinRate()), cmp.Compare(a.ID, b.ID))
	})
	return order
}

// at is the wall-clock offset of service instant t; exact for a trace of
// greedyTrace.
func at(t units.Time) time.Duration {
	return time.Duration(math.Round(float64(t) * float64(time.Second)))
}

// submissionFor is r as a client would send it the moment it arrives.
func submissionFor(r request.Request) server.Submission {
	return server.Submission{
		From: int(r.Ingress), To: int(r.Egress),
		Volume: r.Volume, MaxRate: r.MaxRate, Deadline: r.Finish,
	}
}

func platformServer(tb testing.TB, cfg workload.Config, policy string, clk *fakeClock) *server.Server {
	tb.Helper()
	caps := make([]units.Bandwidth, cfg.NumIngress)
	for i := range caps {
		caps[i] = cfg.PointCapacity
	}
	srv, err := server.New(server.Config{Ingress: caps, Egress: caps, Policy: policy, Clock: clk.now})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv
}

// daemonDecidesLikeGreedy runs one trace through flexible.Greedy and through
// a live Server, one submission at a time in GREEDY's order with the clock
// standing at each arrival, and compares every decision.
func daemonDecidesLikeGreedy(tb testing.TB, seed int64, policy string, n int, load float64, quantum time.Duration) (accepted int) {
	tb.Helper()
	cfg, set := greedyTrace(tb, seed, n, load, quantum)
	pol, err := core.ParsePolicy(policy)
	if err != nil {
		tb.Fatal(err)
	}
	want, err := flexible.Greedy{Policy: pol}.Schedule(cfg.Network(), set)
	if err != nil {
		tb.Fatal(err)
	}

	clk := &fakeClock{}
	srv := platformServer(tb, cfg, policy, clk)
	for _, r := range greedyOrder(set) {
		clk.ns.Store(int64(at(r.Start)))
		d, err := srv.Submit(submissionFor(r))
		if err != nil {
			tb.Fatalf("seed %d %s: request %d: %v", seed, policy, r.ID, err)
		}
		w := want.Decision(r.ID)
		if d.Accepted != w.Accepted {
			tb.Fatalf("seed %d %s: request %d at %v: daemon accepted=%v (%s), GREEDY accepted=%v (%s)",
				seed, policy, r.ID, r.Start, d.Accepted, d.Reason, w.Accepted, w.Reason)
		}
		if !d.Accepted {
			continue
		}
		accepted++
		if d.Rate != w.Grant.Bandwidth || d.Sigma != w.Grant.Sigma || d.Tau != w.Grant.Tau {
			tb.Fatalf("seed %d %s: request %d: daemon granted %v on [%v, %v), GREEDY %v on [%v, %v)",
				seed, policy, r.ID, d.Rate, d.Sigma, d.Tau, w.Grant.Bandwidth, w.Grant.Sigma, w.Grant.Tau)
		}
	}
	if err := srv.VerifyInvariant(); err != nil {
		tb.Fatal(err)
	}
	return accepted
}

func TestDaemonDecidesLikeGreedy(t *testing.T) {
	const n = 2000
	for _, policy := range []string{"minbw", "f=0.5", "f=1"} {
		for seed, quantum := range []time.Duration{time.Nanosecond, 30 * time.Second} {
			accepted := daemonDecidesLikeGreedy(t, int64(seed)+1, policy, n, 1.5, quantum)
			t.Logf("%s, arrivals on multiples of %v: %d of %d accepted, all as GREEDY decides", policy, quantum, accepted, n)
			if accepted < n/5 || accepted > n*9/10 {
				t.Errorf("%s: %d of %d accepted: the trace does not exercise both outcomes", policy, accepted, n)
			}
		}
	}
}

// FuzzDaemonDecidesLikeGreedy is the same differential over seeds, loads
// and clock resolutions.
func FuzzDaemonDecidesLikeGreedy(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(15), uint16(0))
	f.Add(int64(2), uint8(1), uint8(30), uint16(1000))
	f.Add(int64(3), uint8(2), uint8(8), uint16(30000))
	f.Fuzz(func(t *testing.T, seed int64, policy, load uint8, quantumMs uint16) {
		policies := []string{"minbw", "f=0.5", "f=1", "f=0.8"}
		quantum := time.Duration(quantumMs) * time.Millisecond
		if quantum == 0 {
			quantum = time.Nanosecond
		}
		daemonDecidesLikeGreedy(t, seed, policies[int(policy)%len(policies)], 300, 0.5+float64(load%40)/10, quantum)
	})
}
