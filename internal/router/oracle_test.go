package router

import (
	"cmp"
	"math"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/core"
	"gridbw/internal/request"
	"gridbw/internal/sched/flexible"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/workload"
)

// TestRouterDecidesLikeGreedy is internal/server's TestDaemonDecidesLikeGreedy
// one tier up: the same kind of trace through a router over 1, 2 and 3 shard
// groups that share one injected clock makes the decisions flexible.Greedy
// makes — and so the decisions of a single daemon — for every request, ==
// on (accepted, rate, σ, τ), the pairs that cross shards included.
//
// Two places could have cost an ulp and do not on these traces. The egress
// owner re-derives the proposed window as (x − NowS) + now; on a shared
// clock NowS = now, and the test would fail on the first decision the
// re-association flips. And a cross-shard refusal by the egress owner
// leaves the ingress hold booked until the router's detached abort lands:
// the test waits for that before the next arrival, as a client that sees
// the refusal cannot — under concurrency that window is a difference from
// GREEDY, stated in DESIGN.md.
func TestRouterDecidesLikeGreedy(t *testing.T) {
	const n = 400
	for _, nShards := range []int{1, 2, 3} {
		for _, policy := range []string{"minbw", "f=0.5", "f=1"} {
			accepted, crossed := routerDecidesLikeGreedy(t, nShards, policy, n)
			t.Logf("%d shard(s), %s: %d of %d accepted, %d decided across shards, all as GREEDY decides",
				nShards, policy, accepted, n, crossed)
			if accepted < n/5 || accepted > n*9/10 || (nShards > 1) != (crossed > n/5) {
				t.Errorf("%d shard(s), %s: %d accepted, %d cross-shard of %d: the trace does not exercise the tier",
					nShards, policy, accepted, crossed, n)
			}
		}
	}
}

func routerDecidesLikeGreedy(t *testing.T, nShards int, policy string, n int) (accepted, crossed int) {
	t.Helper()
	// The paper's platform at offered load 1.5, arrivals on whole seconds.
	wl := workload.Default(workload.Flexible).WithLoad(1.5)
	wl.Horizon = units.Time(2*n) * wl.MeanInterArrival
	set, err := wl.Generate(int64(nShards))
	if err != nil || set.Len() < n {
		t.Fatalf("trace: %d requests, %v", set.Len(), err)
	}
	reqs := set.All()[:n]
	for i := range reqs {
		moved := units.Time(math.Round(float64(reqs[i].Start)))
		reqs[i].Start, reqs[i].Finish = moved, reqs[i].Finish+(moved-reqs[i].Start)
	}
	set = request.MustNewSet(reqs)
	pol, err := core.ParsePolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flexible.Greedy{Policy: pol}.Schedule(wl.Network(), set)
	if err != nil {
		t.Fatal(err)
	}

	var ns atomic.Int64
	tier := newTierWith(t, nShards, func(_ int, cfg *server.Config) {
		cfg.Ingress = caps(wl.NumIngress, wl.PointCapacity)
		cfg.Egress = caps(wl.NumEgress, wl.PointCapacity)
		cfg.Policy = policy
		cfg.Clock = func() time.Time { return time.Unix(0, ns.Load()) }
	})
	// Algorithm 2's order: by arrival, ties by smaller MinRate, then by ID.
	slices.SortStableFunc(reqs, func(a, b request.Request) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.MinRate(), b.MinRate()), cmp.Compare(a.ID, b.ID))
	})
	for _, r := range reqs {
		ns.Store(int64(r.Start) * int64(time.Second))
		res, code := tier.submit(t, server.SubmitRequest{
			From: int(r.Ingress), To: int(r.Egress),
			VolumeBytes: float64(r.Volume), MaxRateBps: float64(r.MaxRate), DeadlineS: float64(r.Finish),
		})
		if code != http.StatusCreated && code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", r.ID, code)
		}
		w := want.Decision(r.ID)
		if res.Accepted != w.Accepted {
			t.Fatalf("%d shards, %s: request %d (%d->%d, routed %q) at %v: tier accepted=%v (%s), GREEDY accepted=%v (%s)",
				nShards, policy, r.ID, r.Ingress, r.Egress, res.Routed, r.Start, res.Accepted, res.Reason, w.Accepted, w.Reason)
		}
		if res.Routed == server.RoutedCrossShard {
			crossed++
		}
		if !res.Accepted {
			// A refused pair's holds roll back off the request path.
			for _, srv := range tier.servers {
				for held, _ := srv.HoldStats(); held > 0; held, _ = srv.HoldStats() {
					time.Sleep(100 * time.Microsecond)
				}
			}
			continue
		}
		accepted++
		if g := w.Grant; res.RateBps != float64(g.Bandwidth) || res.SigmaS != float64(g.Sigma) || res.TauS != float64(g.Tau) {
			t.Fatalf("%d shards, %s: request %d (routed %q): tier granted %v on [%v, %v), GREEDY %v on [%v, %v)",
				nShards, policy, r.ID, res.Routed, res.RateBps, res.SigmaS, res.TauS, float64(g.Bandwidth), float64(g.Sigma), float64(g.Tau))
		}
	}
	for _, srv := range tier.servers {
		if err := srv.VerifyInvariant(); err != nil {
			t.Fatal(err)
		}
	}
	return accepted, crossed
}
