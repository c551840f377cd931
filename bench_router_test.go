package gridbw

// Router-tier hot-path benchmarks: the same admission measured straight
// against the owning shard (the baseline every routed number is judged
// by), proxied through gridbwrouter's same-shard fast path (one extra
// HTTP hop — the routing tax), and driven through the cross-shard
// two-phase hold protocol (RESERVE×2 + CONFIRM×2 against both owners),
// singly and as a mixed batch.
// scripts/bench.sh router snapshots these into BENCH_router.json; the
// routed same-shard figure staying within 2× of direct is the router's
// latency budget.

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/router"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
)

const routerBenchPoints = 8

// routerBench is two in-process shard groups on a shared fake clock, an
// httptest server per shard, and a router over both.
type routerBench struct {
	ns        *atomic.Int64
	shards    [2]*server.Server
	shardURLs [2]string
	routerURL string
	ring      *router.Ring
}

func newRouterBench(b *testing.B) *routerBench {
	rb := &routerBench{ns: &atomic.Int64{}}
	var caps []units.Bandwidth
	for i := 0; i < routerBenchPoints; i++ {
		caps = append(caps, 10*units.GBps)
	}
	var shardCfgs []router.ShardConfig
	for i := range rb.shards {
		srv, err := server.New(server.Config{
			Ingress: caps, Egress: caps, Policy: "f=0.5",
			Clock: func() time.Time { return time.Unix(0, rb.ns.Load()) },
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() { ts.Close(); srv.Close() })
		rb.shards[i] = srv
		rb.shardURLs[i] = ts.URL
		shardCfgs = append(shardCfgs, router.ShardConfig{
			Name: []string{"s0", "s1"}[i], Endpoints: []string{ts.URL},
		})
	}
	rt, err := router.New(router.Config{Shards: shardCfgs, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	b.Cleanup(rts.Close)
	rb.routerURL = rts.URL
	rb.ring = rt.Ring()
	return rb
}

// pair finds an (ingress, egress) pair that is same-shard or cross-shard
// on the bench ring.
func (rb *routerBench) pair(b *testing.B, cross bool) (from, to int) {
	for i := 0; i < routerBenchPoints; i++ {
		for e := 0; e < routerBenchPoints; e++ {
			if (rb.ring.OwnerIn(i) != rb.ring.OwnerEg(e)) == cross {
				return i, e
			}
		}
	}
	b.Fatalf("no pair with cross=%v on the bench ring", cross)
	return 0, 0
}

// submitLoop drives b.N admissions of one fixed pair through c. The
// shared clock steps 2 s per op, so 1 GB at f·MaxRate = 100 MB/s keeps
// steady-state occupancy per route well under the 10 GB/s points.
func (rb *routerBench) submitLoop(b *testing.B, c *client.Client, from, to int) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(rb.shards[0].Now())
		d, err := c.Submit(ctx, server.SubmitRequest{
			From: from, To: to,
			VolumeBytes: 1e9, MaxRateBps: 2e8,
			NotBeforeS: now, DeadlineS: now + 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !d.Accepted {
			b.Fatalf("request %d rejected: %s", i, d.Reason)
		}
		rb.ns.Add(int64(2 * time.Second))
	}
}

// BenchmarkRouterDirectSubmit is the baseline: the same-shard pair
// submitted straight to its owning shard, no router in the path.
func BenchmarkRouterDirectSubmit(b *testing.B) {
	rb := newRouterBench(b)
	from, to := rb.pair(b, false)
	c := client.New(rb.shardURLs[rb.ring.OwnerIn(from)], nil)
	rb.submitLoop(b, c, from, to)
}

// BenchmarkRouterSameShardSubmit pays the routing tax: one extra HTTP
// hop through the router's same-shard proxy path.
func BenchmarkRouterSameShardSubmit(b *testing.B) {
	rb := newRouterBench(b)
	from, to := rb.pair(b, false)
	rb.submitLoop(b, client.New(rb.routerURL, nil), from, to)
}

// BenchmarkRouterCrossShardSubmit drives the full two-phase protocol:
// RESERVE on the ingress owner, RESERVE on the egress owner, CONFIRM on
// both — four shard round trips per admission.
func BenchmarkRouterCrossShardSubmit(b *testing.B) {
	rb := newRouterBench(b)
	from, to := rb.pair(b, true)
	rb.submitLoop(b, client.New(rb.routerURL, nil), from, to)
}

// BenchmarkRouterCrossShardBatch is one 16-item framed batch through the
// router, half its items cross-shard: two same-shard slices plus the three
// hold waves — at most 3 list-shaped calls per shard, however many items.
func BenchmarkRouterCrossShardBatch(b *testing.B) {
	rb := newRouterBench(b)
	sFrom, sTo := rb.pair(b, false)
	xFrom, xTo := rb.pair(b, true)
	c := client.New(rb.routerURL, nil)
	ctx := context.Background()
	reqs := make([]server.SubmitRequest, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(rb.shards[0].Now())
		for j := range reqs {
			from, to := sFrom, sTo
			if j%2 == 1 {
				from, to = xFrom, xTo
			}
			reqs[j] = server.SubmitRequest{
				From: from, To: to,
				VolumeBytes: 1e8, MaxRateBps: 2e7,
				NotBeforeS: now, DeadlineS: now + 100,
			}
		}
		items, err := c.SubmitBatch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for j, it := range items {
			if it.Error != "" || !it.Reservation.Accepted {
				b.Fatalf("batch %d item %d: %+v", i, j, it)
			}
		}
		rb.ns.Add(int64(2 * time.Second))
	}
}
