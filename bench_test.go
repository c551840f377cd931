// Package gridbw's root benches regenerate every reproduced table and
// figure (run with -v to see the rendered tables) and time the hot paths
// of the library. One bench per experiment of DESIGN.md §4:
//
//	BenchmarkFig4RigidHeuristics   Figure 4 (accept rate + RESOURCE-UTIL)
//	BenchmarkFig5WindowVsFCFS      Figure 5 (window lengths vs FCFS)
//	BenchmarkFig6GreedyPolicies    Figure 6 (f policies, greedy)
//	BenchmarkFig7WindowPolicies    Figure 7 (f policies, WINDOW(400))
//	BenchmarkTabTuningFactor       Table T1 (f sweep, underloaded)
//	BenchmarkTabReduction          Table T2 (Theorem-1 verification)
//	BenchmarkTabTCPBaseline        Table T3 (fluid-TCP contrast)
//	BenchmarkTabOptimalityGap      Table T4 (heuristics vs exact optimum)
//	BenchmarkTabOverlayEnforce     Table T5 (control plane + enforcement)
//	BenchmarkTabHotspotRelief      Table T6 (replica re-homing, §7)
//	BenchmarkTabLongLivedOptimal   Table T7 (long-lived max-flow optimum)
//	BenchmarkTabDistributed        Table T8 (distributed admission, §7)
//	BenchmarkTabBookAhead          Table T9 (advance reservations)
//	BenchmarkTabOrdering           Table T10 (candidate-ordering ablation)
//	BenchmarkTabHeterogeneity      Table T11 (capacity skew)
//	BenchmarkTabGenerationSensitivity  Table T12 (rigid-generation sensitivity)
//	BenchmarkTabBurstiness         Table T13 (bursty arrivals)
//	BenchmarkTabResponseTime       Table T14 (accept rate vs response time)
//
// plus scheduler/substrate micro-benchmarks and the DESIGN.md §5.1
// admission-test and retry ablations.
package gridbw

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/admit"
	"gridbw/internal/alloc"
	"gridbw/internal/cluster"
	"gridbw/internal/des"
	"gridbw/internal/experiment"
	"gridbw/internal/figures"
	"gridbw/internal/fluidtcp"
	"gridbw/internal/maxmin"
	"gridbw/internal/policy"
	"gridbw/internal/report"
	"gridbw/internal/request"
	"gridbw/internal/sched"
	"gridbw/internal/sched/flexible"
	"gridbw/internal/sched/rigid"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/state"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
	"gridbw/internal/workload"
)

// logTables renders tables into the bench log (visible with -v).
func logTables(b *testing.B, tables ...*report.Table) {
	b.Helper()
	var sb strings.Builder
	for _, t := range tables {
		if err := t.Fprint(&sb); err != nil {
			b.Fatal(err)
		}
		sb.WriteString("\n")
	}
	b.Log("\n" + sb.String())
}

func BenchmarkFig4RigidHeuristics(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		series, tables, err := figures.Fig4(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, tables...)
			for _, s := range series {
				last := s.Points[len(s.Points)-1]
				b.ReportMetric(experiment.AcceptRateOf(last.Result), s.Label+"@load5")
			}
		}
	}
}

func BenchmarkFig5WindowVsFCFS(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		series, table, err := figures.Fig5(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			for _, s := range series {
				b.ReportMetric(experiment.AcceptRateOf(s.Points[0].Result), s.Label+"@0.1s")
			}
		}
	}
}

func BenchmarkFig6GreedyPolicies(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		_, _, tables, err := figures.Fig6(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, tables...)
		}
	}
}

func BenchmarkFig7WindowPolicies(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		_, _, tables, err := figures.Fig7(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, tables...)
		}
	}
}

func BenchmarkTabTuningFactor(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		series, table, err := figures.TabTuning(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			for _, s := range series {
				first := experiment.AcceptRateOf(s.Points[0].Result)
				last := experiment.AcceptRateOf(s.Points[len(s.Points)-1].Result)
				b.ReportMetric(first-last, s.Label+"-penalty(f=1)")
			}
		}
	}
}

func BenchmarkTabReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, table, err := figures.TabReduction(10, 7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			agree := 0
			for _, r := range rows {
				if r.Agree {
					agree++
				}
			}
			b.ReportMetric(float64(agree)/float64(len(rows)), "equivalence-rate")
		}
	}
}

func BenchmarkTabTCPBaseline(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		cmp, table, err := figures.TabTCPBaseline(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			b.ReportMetric(cmp.TCPFailureRate, "tcp-failure-rate")
			b.ReportMetric(cmp.SchedAcceptRate, "sched-accept-rate")
		}
	}
}

func BenchmarkTabOptimalityGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, table, err := figures.TabOptimalityGap(6, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
		}
	}
}

func BenchmarkTabOverlayEnforce(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		res, table, err := figures.TabOverlayEnforce(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			b.ReportMetric(res.CheatingRatio, "cheater-delivery")
		}
	}
}

func BenchmarkTabHotspotRelief(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		res, table, err := figures.TabHotspot(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			b.ReportMetric(res.AfterAccept-res.BeforeAccept, "accept-gain")
		}
	}
}

func BenchmarkTabLongLivedOptimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, table, err := figures.TabLongLived(8, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
		}
	}
}

func BenchmarkTabDistributed(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		rows, table, err := figures.TabDistributed(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			b.ReportMetric(rows[len(rows)-1].ConflictRate, "stalest-conflict-rate")
		}
	}
}

func BenchmarkTabBookAhead(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		rows, table, err := figures.TabBookAhead(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			b.ReportMetric(rows[len(rows)-1].AcceptRate, "full-bookahead-accept")
		}
	}
}

func BenchmarkTabOrdering(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		_, table, err := figures.TabOrdering(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
		}
	}
}

func BenchmarkTabHeterogeneity(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		rows, table, err := figures.TabHeterogeneity(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			b.ReportMetric(rows[0].WindowAccept-rows[3].WindowAccept, "skew-penalty")
		}
	}
}

func BenchmarkTabGenerationSensitivity(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		_, table, err := figures.TabGenerationSensitivity(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
		}
	}
}

func BenchmarkTabBurstiness(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		rows, table, err := figures.TabBurstiness(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			last := rows[len(rows)-1]
			b.ReportMetric(last.RetryAccept-last.GreedyAccept, "retry-vs-greedy@burst4")
		}
	}
}

func BenchmarkTabResponseTime(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		_, table, err := figures.TabResponseTime(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
		}
	}
}

func BenchmarkTabTheoryCheck(b *testing.B) {
	scale := figures.Quick()
	for i := 0; i < b.N; i++ {
		rows, table, err := figures.TabTheoryCheck(scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTables(b, table)
			var worst float64
			for _, r := range rows {
				if g := r.Simulated - r.Analytic; g > worst || -g > worst {
					if g < 0 {
						g = -g
					}
					worst = g
				}
			}
			b.ReportMetric(worst, "worst-theory-gap")
		}
	}
}

// --- scheduler micro-benchmarks ---------------------------------------

func benchScheduler(b *testing.B, s sched.Scheduler, kind workload.Kind) {
	b.Helper()
	cfg := workload.Default(kind)
	cfg.Horizon = 1000
	reqs, err := cfg.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	net := cfg.Network()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.Schedule(net, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if out.AcceptedCount() == 0 {
			b.Fatal("scheduler accepted nothing")
		}
	}
	b.ReportMetric(float64(reqs.Len()), "requests/op")
}

func BenchmarkSchedulerFCFSRigid(b *testing.B) {
	benchScheduler(b, rigid.FCFS{}, workload.Rigid)
}

func BenchmarkSchedulerCumulatedSlots(b *testing.B) {
	benchScheduler(b, rigid.CumulatedSlots(), workload.Rigid)
}

func BenchmarkSchedulerMinBWSlots(b *testing.B) {
	benchScheduler(b, rigid.MinBWSlots(), workload.Rigid)
}

func BenchmarkSchedulerGreedy(b *testing.B) {
	benchScheduler(b, flexible.Greedy{Policy: policy.FractionMaxRate(1)}, workload.Flexible)
}

func BenchmarkSchedulerWindow400(b *testing.B) {
	benchScheduler(b, flexible.Window{Policy: policy.FractionMaxRate(1), Step: 400}, workload.Flexible)
}

// --- substrate micro-benchmarks ----------------------------------------

// BenchmarkProfileReserveRelease times one reserve plus its release. The
// sparse case works on a near-empty profile; the dense case on what a
// loaded daemon's profiles look like (bench/ workload batch_dense): about
// 3600 breakpoints, every span opening two new ones and covering hundreds
// of segments.
func BenchmarkProfileReserveRelease(b *testing.B) {
	b.Run("sparse", func(b *testing.B) {
		p := alloc.NewProfile(1 * units.GBps)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := units.Time(i % 1000)
			if err := p.Reserve(t0, t0+10, 100*units.MBps); err != nil {
				b.Fatal(err)
			}
			p.Release(t0, t0+10, 100*units.MBps)
		}
	})
	b.Run("dense", func(b *testing.B) {
		p := alloc.NewProfile(1 * units.GBps)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1800; i++ {
			t0 := units.Time(rng.Float64() * 4000)
			if err := p.Reserve(t0, t0+units.Time(100+rng.Float64()*400), 2*units.MBps); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(p.Breakpoints()), "breakpoints")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := units.Time(rng.Float64() * 3600)
			t1 := t0 + units.Time(100+rng.Float64()*400)
			if err := p.Reserve(t0, t1, 1*units.MBps); err != nil {
				b.Fatal(err)
			}
			p.Release(t0, t1, 1*units.MBps)
		}
	})
}

// BenchmarkEventQueue times the event queue of internal/des alone, the one
// every grant's expiry at τ waits in: arm one event and fire the earliest,
// with 1k and with 20k events pending (batch_dense's daemon holds about 19k
// live grants, each with its expiry queued).
func BenchmarkEventQueue(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("pending=%dk", n/1000), func(b *testing.B) {
			sim := des.New()
			rng := rand.New(rand.NewSource(1))
			fn := func(*des.Simulator) {}
			for range n {
				sim.At(units.Time(rng.Float64()*1000), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.At(sim.Now()+units.Time(rng.Float64()*1000), fn)
				if !sim.Step() {
					b.Fatal("nothing fired")
				}
			}
		})
	}
}

// BenchmarkServerAdmit times one gridbwd admission end to end — request
// validation, policy assignment, the two-sided ledger reserve, and expiry
// scheduling — against a fake clock that advances between submissions so
// expired grants keep the live set (and profile sizes) steady.
func BenchmarkServerAdmit(b *testing.B) {
	var ns atomic.Int64
	srv, err := server.New(server.Config{
		Ingress: []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
		Egress:  []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
		Policy:  "f=0.5",
		Clock:   func() time.Time { return time.Unix(0, ns.Load()) },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	submit := func(i int) {
		now := srv.Now()
		// 1 GB at f·MaxRate = 100 MB/s occupies its route for 10 s; the
		// 2 s clock step caps steady-state occupancy at ~5 grants/route.
		d, err := srv.Submit(server.Submission{
			From: i % 2, To: (i / 2) % 2,
			Volume: 1 * units.GB, MaxRate: 200 * units.MBps,
			NotBefore: now, Deadline: now + 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !d.Accepted {
			b.Fatalf("request %d rejected: %s", i, d.Reason)
		}
		ns.Add(int64(2 * time.Second))
	}
	// Warm past the finished-decision retention ring (4096) before the
	// timer starts: reservation entries recycle through the pool only
	// once retention evicts them, so steady state — the figure of merit —
	// begins after the ring is full and every admission reuses an entry.
	for i := 0; i < 5000; i++ {
		submit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(i)
	}
}

// BenchmarkServerParallelSubmit measures the sharded control plane under
// concurrent submission load on an 8×8 platform. "single-pair" drives
// every goroutine through one route, so all admissions serialize on one
// shard pair — the behavior of the former whole-ledger mutex. In
// "disjoint-pairs" each goroutine owns its own route and admissions only
// share the small global section; the per-op gap between the two is the
// tentpole's win. "batch" submits the same disjoint traffic 16 at a time
// through SubmitBatch, amortizing lock traffic across a pair-sorted pass.
// The "fsync=always" arms run on a WAL that fsyncs what every locked
// section logs, as gridbwd does by default: "serial" one submitter,
// "disjoint-pairs" and "batch" as above. There an op's cost is mostly its
// fsyncs — one per submission, and one per batch, since a batch's
// decisions reach the log in one write.
func BenchmarkServerParallelSubmit(b *testing.B) {
	const points = 8
	newSrv := func(b *testing.B, l *wal.Log) (*server.Server, *atomic.Int64) {
		var caps []units.Bandwidth
		for i := 0; i < points; i++ {
			caps = append(caps, 10*units.GBps)
		}
		ns := &atomic.Int64{}
		srv, err := server.New(server.Config{
			Ingress: caps, Egress: caps, Policy: "f=0.5",
			Clock: func() time.Time { return time.Unix(0, ns.Load()) },
			WAL:   l,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		return srv, ns
	}
	walAlways := func(b *testing.B) *wal.Log {
		l, _, err := wal.Open(b.TempDir(), wal.Options{Policy: wal.SyncAlways})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		return l
	}
	// 1 GB at f·MaxRate = 100 MB/s occupies a route for 10 s; advancing
	// the shared clock 2 s per op keeps steady-state occupancy far below
	// the 10 GB/s points, so admissions never start failing mid-run.
	submit := func(b *testing.B, srv *server.Server, ns *atomic.Int64, route int) {
		now := srv.Now()
		d, err := srv.Submit(server.Submission{
			From: route, To: route,
			Volume: 1 * units.GB, MaxRate: 200 * units.MBps,
			NotBefore: now, Deadline: now + 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !d.Accepted {
			b.Fatalf("route %d rejected: %s", route, d.Reason)
		}
		ns.Add(int64(2 * time.Second))
	}
	disjoint := func(b *testing.B, l *wal.Log) {
		srv, ns := newSrv(b, l)
		var nextRoute atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			route := int(nextRoute.Add(1)-1) % points
			for pb.Next() {
				submit(b, srv, ns, route)
			}
		})
	}
	batched := func(b *testing.B, l *wal.Log) {
		const batch = 16
		srv, ns := newSrv(b, l)
		var nextRoute atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			route := int(nextRoute.Add(1)-1) % points
			subs := make([]server.Submission, batch)
			for pb.Next() {
				now := srv.Now()
				for k := range subs {
					subs[k] = server.Submission{
						From: route, To: route,
						Volume: 1 * units.GB, MaxRate: 200 * units.MBps,
						NotBefore: now, Deadline: now + 1000,
					}
				}
				res, err := srv.SubmitBatch(subs)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Err != nil || !r.Decision.Accepted {
						b.Fatalf("route %d batch item: %+v", route, r)
					}
				}
				ns.Add(int64(2 * time.Second))
			}
		})
		b.ReportMetric(batch, "submissions/op")
	}

	b.Run("single-pair", func(b *testing.B) {
		srv, ns := newSrv(b, nil)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				submit(b, srv, ns, 0)
			}
		})
	})
	b.Run("disjoint-pairs", func(b *testing.B) { disjoint(b, nil) })
	b.Run("batch", func(b *testing.B) { batched(b, nil) })
	b.Run("fsync=always", func(b *testing.B) {
		b.Run("serial", func(b *testing.B) {
			srv, ns := newSrv(b, walAlways(b))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				submit(b, srv, ns, i%points)
			}
		})
		b.Run("disjoint-pairs", func(b *testing.B) { disjoint(b, walAlways(b)) })
		b.Run("batch", func(b *testing.B) { batched(b, walAlways(b)) })
	})
}

// BenchmarkClientSubmitRetry measures the client's retry path end to
// end: every submission is shed once with 429 before succeeding, so each
// iteration pays two HTTP round trips plus the backoff machinery (with
// sleeps stubbed out — the cost measured is the protocol, not the wait).
// The shedding double hides Hijack, so no call upgrades past it to the call
// stream.
func BenchmarkClientSubmitRetry(b *testing.B) {
	var ns atomic.Int64
	srv, err := server.New(server.Config{
		Ingress: []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
		Egress:  []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
		Policy:  "f=0.5",
		Clock:   func() time.Time { return time.Unix(0, ns.Load()) },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	var calls atomic.Int64
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && calls.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(plainWriter{w}, r)
	}))
	defer ts.Close()

	c := client.NewWithOptions(ts.URL, ts.Client(), client.Options{
		Jitter: func() float64 { return 0 },
		Sleep:  func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := srv.Now()
		d, err := c.Submit(ctx, wire.SubmitRequest{
			From: i % 2, To: (i / 2) % 2,
			VolumeBytes: 1e9, MaxRateBps: 2e8,
			NotBeforeS: float64(now), DeadlineS: float64(now + 100),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !d.Accepted {
			b.Fatalf("request %d rejected: %s", i, d.Reason)
		}
		ns.Add(int64(2 * time.Second))
	}
}

// BenchmarkProfileMaxUsed times MaxUsedIn on a long-lived, densely
// fragmented profile: 20k half-second reservations spread over ~an hour,
// queried with the wide spans a WINDOW(400) policy asks for.
func BenchmarkProfileMaxUsed(b *testing.B) {
	p := alloc.NewProfile(1 * units.GBps)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		t0 := units.Time(rng.Float64() * 4000)
		if err := p.Reserve(t0, t0+0.5, 1*units.MBps); err != nil {
			b.Fatal(err)
		}
	}
	rng = rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := units.Time(rng.Float64() * 3600)
		_ = p.MaxUsedIn(t0, t0+400)
	}
}

// BenchmarkBatchCodec times one round trip (encode + decode of the
// request and of its answer) through each wire codec, for each shape the
// request plane carries: a 64-submission batch ("json" / "binary"), a
// single submit, and the hold lists of one cross-shard wave pair (a
// 16-hold RESERVE and its 16-ref CONFIRM). Both codecs carry the same
// information; the frames exist because encoding/json on both ends costs
// more than the admission it carries. items/op says how many records an op
// moved, so ns and allocs per item are the per-op figures over it.
func BenchmarkBatchCodec(b *testing.B) {
	const n, nHolds = 64, 16
	reqs := make([]wire.SubmitRequest, n)
	subs := make([]wire.Submission, n)
	results := make([]server.BatchResult, n)
	items := make([]wire.BatchItemJSON, n)
	for i := range reqs {
		key := fmt.Sprintf("bench-key-%04d", i)
		reqs[i] = wire.SubmitRequest{
			From: i % 2, To: (i / 2) % 2,
			VolumeBytes: 1e9, MaxRateBps: 2e8, DeadlineS: 1e5,
			IdempotencyKey: key,
		}
		subs[i] = wire.Submission{
			From: i % 2, To: (i / 2) % 2,
			Volume: 1 * units.GB, MaxRate: 200 * units.MBps, Deadline: 1e5,
			IdempotencyKey: key,
		}
		results[i] = server.BatchResult{Decision: server.Decision{
			ID: request.ID(i + 1), Accepted: true, State: server.StateBooked,
			Rate: 1e8, Sigma: 1.5, Tau: 11.5,
		}}
	}
	blob := server.AppendBinaryBatchResponse(nil, results)
	dec, err := wire.DecodeBatchResponse(blob)
	if err != nil {
		b.Fatal(err)
	}
	copy(items, dec)
	reserves := make([]wire.HoldReserveJSON, nHolds)
	reserved := make([]wire.HoldReserveResponseJSON, nHolds)
	refs := make([]wire.HoldRefJSON, nHolds)
	states := make([]wire.HoldStateJSON, nHolds)
	for i := range reserves {
		hold := fmt.Sprintf("x-bench-key-%04d", i)
		reserves[i] = wire.HoldReserveJSON{
			Hold: hold, Side: "in", Point: i % 8, PeerPoint: (i / 2) % 8, TTLS: 5,
			VolumeBytes: 1e9, MaxRateBps: 2e8, NotBeforeS: 1000, DeadlineS: 1100,
		}
		reserved[i] = wire.HoldReserveResponseJSON{
			Hold: hold, Held: true, ID: i + 1, RateBps: 1e8, SigmaS: 1000, TauS: 1010, Epoch: 1, NowS: 1000,
		}
		refs[i] = wire.HoldRefJSON{Hold: hold, Epoch: 1}
		states[i] = wire.HoldStateJSON{Hold: hold, State: "confirmed", Side: "in", PeerPoint: (i / 2) % 8, Epoch: 1}
	}

	// viaJSON is one JSON round trip of a request and its answer.
	viaJSON := func(b *testing.B, req, gotReq, resp, gotResp any) {
		for _, leg := range [][2]any{{req, gotReq}, {resp, gotResp}} {
			blob, err := json.Marshal(leg[0])
			if err != nil {
				b.Fatal(err)
			}
			if err := json.Unmarshal(blob, leg[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var gotReq wire.BatchRequest
			var gotResp wire.BatchResponse
			viaJSON(b, wire.BatchRequest{Requests: reqs}, &gotReq, wire.BatchResponse{Results: items}, &gotResp)
			if len(gotReq.Requests) != n || len(gotResp.Results) != n {
				b.Fatal("lossy round trip")
			}
		}
		b.ReportMetric(n, "items/op")
	})
	b.Run("binary", func(b *testing.B) {
		var reqBuf, respBuf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reqBuf = wire.AppendBatchRequest(reqBuf[:0], subs)
			gotReq, err := wire.DecodeBatchRequest(reqBuf, n)
			if err != nil {
				b.Fatal(err)
			}
			respBuf = server.AppendBinaryBatchResponse(respBuf[:0], results)
			gotResp, err := wire.DecodeBatchResponse(respBuf)
			if err != nil {
				b.Fatal(err)
			}
			if len(gotReq) != n || len(gotResp) != n {
				b.Fatal("lossy round trip")
			}
		}
		b.ReportMetric(n, "items/op")
	})
	b.Run("submit-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var gotReq wire.SubmitRequest
			var gotResp wire.ReservationJSON
			viaJSON(b, reqs[i%n], &gotReq, items[i%n].Reservation, &gotResp)
			if gotReq.IdempotencyKey == "" || !gotResp.Accepted {
				b.Fatal("lossy round trip")
			}
		}
		b.ReportMetric(1, "items/op")
	})
	b.Run("submit-frame", func(b *testing.B) {
		var reqBuf, respBuf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reqBuf = wire.AppendSubmitRequest(reqBuf[:0], &subs[i%n])
			gotReq, err := wire.DecodeSubmitRequest(reqBuf)
			if err != nil {
				b.Fatal(err)
			}
			respBuf = server.AppendBinaryBatchResponse(respBuf[:0], results[i%n:i%n+1])
			gotResp, err := wire.DecodeSubmitResponse(respBuf)
			if err != nil {
				b.Fatal(err)
			}
			if gotReq.IdempotencyKey == "" || !gotResp.Accepted {
				b.Fatal("lossy round trip")
			}
		}
		b.ReportMetric(1, "items/op")
	})
	b.Run("holds-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var gotReserves wire.HoldListJSON[wire.HoldReserveJSON]
			var gotReserved wire.HoldResultsJSON[wire.HoldReserveResponseJSON]
			viaJSON(b, wire.HoldListJSON[wire.HoldReserveJSON]{Holds: reserves}, &gotReserves,
				wire.HoldResultsJSON[wire.HoldReserveResponseJSON]{Results: reserved}, &gotReserved)
			var gotRefs wire.HoldListJSON[wire.HoldRefJSON]
			var gotStates wire.HoldResultsJSON[wire.HoldStateJSON]
			viaJSON(b, wire.HoldListJSON[wire.HoldRefJSON]{Holds: refs}, &gotRefs,
				wire.HoldResultsJSON[wire.HoldStateJSON]{Results: states}, &gotStates)
			if len(gotReserves.Holds) != nHolds || len(gotReserved.Results) != nHolds ||
				len(gotRefs.Holds) != nHolds || len(gotStates.Results) != nHolds {
				b.Fatal("lossy round trip")
			}
		}
		b.ReportMetric(2*nHolds, "items/op")
	})
	b.Run("holds-frame", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wire.AppendHoldReserveList(buf[:0], reserves)
			gotReserves, err := wire.DecodeHoldReserveList(buf, nHolds)
			if err != nil {
				b.Fatal(err)
			}
			buf = wire.AppendHoldReserveResults(buf[:0], reserved)
			gotReserved, err := wire.DecodeHoldReserveResults(buf)
			if err != nil {
				b.Fatal(err)
			}
			buf = wire.AppendHoldRefList(buf[:0], refs)
			gotRefs, err := wire.DecodeHoldRefs(buf, nHolds)
			if err != nil {
				b.Fatal(err)
			}
			buf = wire.AppendHoldStates(buf[:0], states)
			gotStates, err := wire.DecodeHoldStates(buf)
			if err != nil {
				b.Fatal(err)
			}
			if len(gotReserves) != nHolds || len(gotReserved) != nHolds || len(gotRefs) != nHolds || len(gotStates) != nHolds {
				b.Fatal("lossy round trip")
			}
		}
		b.ReportMetric(2*nHolds, "items/op")
	})
}

// BenchmarkServerBatchHTTP measures a 64-submission batch end to end —
// client encode, HTTP POST, server decode, admission, response encode,
// client decode — under each codec: "binary" is client.SubmitBatch, which
// speaks frames; "json" is the curl face of the same handler, posted and
// decoded by hand. The admission work is identical, so the per-op gap is
// pure wire-format overhead. Both are pinned to HTTP by a writer that hides
// Hijack; "stream" is client.SubmitBatch on the call stream.
func BenchmarkServerBatchHTTP(b *testing.B) {
	const batch = 64
	run := func(b *testing.B, binary, stream bool) {
		var ns atomic.Int64
		srv, err := server.New(server.Config{
			Ingress: []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
			Egress:  []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
			Policy:  "f=0.5",
			Clock:   func() time.Time { return time.Unix(0, ns.Load()) },
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		if !stream {
			h = plainHandler(h)
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		c := client.New(ts.URL, ts.Client())
		defer c.Close()
		ctx := context.Background()
		reqs := make([]wire.SubmitRequest, batch)
		submit := func() {
			now := srv.Now()
			for k := range reqs {
				reqs[k] = wire.SubmitRequest{
					From: k % 2, To: (k / 2) % 2,
					// 100 MB at 100 MB/s granted rate: one-second grants
					// keep steady-state occupancy well under capacity.
					VolumeBytes: 1e8, MaxRateBps: 2e8,
					NotBeforeS: float64(now), DeadlineS: float64(now + 100),
				}
			}
			var items []wire.BatchItemJSON
			if binary {
				var err error
				if items, err = c.SubmitBatch(ctx, reqs); err != nil {
					b.Fatal(err)
				}
			} else {
				items = postJSONBatch(b, ts, reqs)
			}
			for _, it := range items {
				if it.Error != "" || it.Reservation == nil || !it.Reservation.Accepted {
					b.Fatalf("batch item: %+v", it)
				}
			}
			ns.Add(int64(2 * time.Second))
		}
		submit() // warm connections and pools outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit()
		}
		b.ReportMetric(batch, "submissions/op")
	}
	b.Run("json", func(b *testing.B) { run(b, false, false) })
	b.Run("binary", func(b *testing.B) { run(b, true, false) })
	b.Run("stream", func(b *testing.B) { run(b, true, true) })
}

// plainWriter hides Hijack, as a tracing or metrics middleware does: the
// server cannot take the connection over for the call stream, so every call
// through it stays an HTTP round trip.
type plainWriter struct{ http.ResponseWriter }

// plainHandler serves h through plainWriter.
func plainHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h.ServeHTTP(plainWriter{w}, r) })
}

// postJSONBatch is POST /v1/batch the way a JSON caller makes it.
func postJSONBatch(b *testing.B, ts *httptest.Server, reqs []wire.SubmitRequest) []wire.BatchItemJSON {
	for i := range reqs {
		reqs[i].IdempotencyKey = client.NewIdempotencyKey() // as the client does
	}
	blob, err := json.Marshal(wire.BatchRequest{Requests: reqs})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var out wire.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("JSON batch: HTTP %d, %v", resp.StatusCode, err)
	}
	// Read to EOF, or the connection is not kept alive for the next op.
	_, _ = io.Copy(io.Discard, resp.Body)
	return out.Results
}

// BenchmarkReplSyncAckAdmit measures the synchronous-ack admission path
// end to end: a WAL-backed primary in -repl-sync=one mode with a real
// follower replicating over HTTP, every submission Durable — so each decide
// parks until the follower's cursor passes the decision's WAL frame. The
// per-op figure is the full replicated-durability admission latency; the
// extra p99-ns/op metric is the tail the sync-ack SLO is written against.
// Both WALs run one fsync policy: "always" times mostly the follower's
// fsync per shipped batch, "interval" (what the quorum_durable workload
// runs) the replication path itself. Both ends retain 16 finished
// reservations, so that the steady state the benchmark times recycles
// their entries as a long-running daemon's does.
func BenchmarkReplSyncAckAdmit(b *testing.B) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval} {
		b.Run("fsync="+policy.String(), func(b *testing.B) { benchReplSyncAckAdmit(b, policy) })
	}
}

// replBenchRetention is the finished-reservation retention of the
// replication benchmarks' servers.
const replBenchRetention = 16

func benchReplSyncAckAdmit(b *testing.B, policy wal.SyncPolicy) {
	pwal, _, err := wal.Open(b.TempDir(), wal.Options{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	defer pwal.Close()
	var ns atomic.Int64
	srv, err := server.New(server.Config{
		Ingress:  []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
		Egress:   []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
		Policy:   "f=0.5",
		Clock:    func() time.Time { return time.Unix(0, ns.Load()) },
		WAL:      pwal,
		ReplID:   "bench-primary",
		SyncMode: "one", SyncTimeout: 10 * time.Second,
		FinishedRetention: replBenchRetention,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fwal, _, err := wal.Open(b.TempDir(), wal.Options{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	defer fwal.Close()
	follower, err := server.New(server.Config{
		Ingress:           []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
		Egress:            []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
		WAL:               fwal,
		Follow:            ts.URL,
		ReplID:            "bench-follower",
		FinishedRetention: replBenchRetention,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer follower.Close()
	if err := follower.StartFollowing(); err != nil {
		b.Fatal(err)
	}

	submit := func(i int) {
		now := srv.Now()
		d, err := srv.Submit(server.Submission{
			From: i % 2, To: (i / 2) % 2,
			Volume: 1 * units.GB, MaxRate: 200 * units.MBps,
			NotBefore: now, Deadline: now + 100,
			Durable: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !d.Accepted {
			b.Fatalf("request %d rejected: %s", i, d.Reason)
		}
		ns.Add(int64(2 * time.Second))
	}
	submit(0) // warm the pull loop before timing

	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		submit(i + 1)
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	if got := srv.Status().Stats.SyncDegraded; got != 0 {
		b.Fatalf("%d sync waits degraded: the bench timed the timeout, not the ack", got)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if len(lat)*99/100 >= len(lat) {
		p99 = lat[len(lat)-1]
	}
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns/op")
}

// BenchmarkReplApplyShipped times the follower's side of replication
// alone: one op is one shipped event decoded, applied and appended to the
// follower's WAL, in the 26-event batches a busy primary's pull answers
// carry, cursor record included. The frames are a real primary's (accepts
// and the expiries the advancing clock fires), read back the way the pull
// handler reads them. The WAL fsyncs on its interval, as the end-to-end
// benchmark's followers do, so the figure is the layer's own CPU and
// page-cache cost — what is left of a sync-ack wait besides the HTTP trip.
// The follower retains 16 finished reservations, so that applying an
// accept reuses the entry an evicted one left.
func BenchmarkReplApplyShipped(b *testing.B) {
	const perBatch = 26
	caps := []units.Bandwidth{10 * units.GBps, 10 * units.GBps}
	pwal, _, err := wal.Open(b.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer pwal.Close()
	var ns atomic.Int64
	clock := func() time.Time { return time.Unix(0, ns.Load()) }
	primary, err := server.New(server.Config{Ingress: caps, Egress: caps, Policy: "f=0.5", Clock: clock, WAL: pwal})
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	for i := 0; pwal.Records() < uint64(b.N); i++ {
		now := primary.Now()
		if d, err := primary.Submit(server.Submission{
			From: i % 2, To: (i / 2) % 2,
			Volume: 1 * units.GB, MaxRate: 200 * units.MBps,
			NotBefore: now, Deadline: now + 100,
		}); err != nil || !d.Accepted {
			b.Fatalf("request %d: %v %+v", i, err, d)
		}
		ns.Add(int64(2 * time.Second))
	}
	var batches []cluster.ShippedBatch
	pos := wal.Pos{Seg: 1}
	for left := b.N; left > 0; {
		payloads, start, next, err := pwal.ReadFrom(pos, min(perBatch, left), 0)
		if err != nil || len(payloads) == 0 {
			b.Fatalf("read primary WAL at %v: %d records, %v", pos, len(payloads), err)
		}
		batches = append(batches, cluster.ShippedBatch{Epoch: 1, From: start, Next: next, End: next, Events: payloads})
		pos, left = next, left-len(payloads)
	}

	fwal, _, err := wal.Open(b.TempDir(), wal.Options{Policy: wal.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer fwal.Close()
	follower, err := server.New(server.Config{
		Ingress: caps, Egress: caps, Clock: clock, WAL: fwal,
		Follow:            "http://127.0.0.1:0", // never started: batches are applied directly
		FinishedRetention: replBenchRetention,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer follower.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		if err := follower.ApplyShipped(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fwal.Records() != uint64(b.N) || fwal.Cursor() != pos {
		b.Fatalf("follower WAL holds %d records at cursor %v, want %d at %v", fwal.Records(), fwal.Cursor(), b.N, pos)
	}
}

func BenchmarkMaxMinShare(b *testing.B) {
	net := topology.Uniform(10, 10, 1*units.GBps)
	flows := make([]maxmin.Flow, 100)
	for i := range flows {
		flows[i] = maxmin.Flow{
			ID:      i,
			Ingress: topology.PointID(i % 10),
			Egress:  topology.PointID((i * 7) % 10),
			Cap:     units.Bandwidth(10+i%90) * 10 * units.MBps,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxmin.Share(net, flows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(flows)), "flows/op")
}

func BenchmarkFluidTCPSimulate(b *testing.B) {
	cfg := workload.Default(workload.Flexible)
	cfg.Horizon = 300
	cfg.MeanInterArrival = 2
	reqs, err := cfg.Generate(3)
	if err != nil {
		b.Fatal(err)
	}
	net := cfg.Network()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fluidtcp.Simulate(net, reqs, fluidtcp.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reqs.Len()), "flows/op")
}

// BenchmarkAblationRetry quantifies the §7 refinement: the retry variant
// of WINDOW versus the paper's discard-on-miss Algorithm 3 on a heavy
// workload (accept rates reported as custom metrics).
func BenchmarkAblationRetry(b *testing.B) {
	cfg := workload.Default(workload.Flexible)
	cfg.Horizon = 1000
	cfg.MeanInterArrival = 1
	reqs, err := cfg.Generate(5)
	if err != nil {
		b.Fatal(err)
	}
	net := cfg.Network()
	p := policy.FractionMaxRate(1)
	for i := 0; i < b.N; i++ {
		plain, err := (flexible.Window{Policy: p, Step: 200}).Schedule(net, reqs)
		if err != nil {
			b.Fatal(err)
		}
		retry, err := (flexible.WindowRetry{Policy: p, Step: 200}).Schedule(net, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(plain.AcceptRate(), "window-accept")
			b.ReportMetric(retry.AcceptRate(), "retry-accept")
			if retry.AcceptRate() < plain.AcceptRate() {
				b.Fatal("retry variant lost accepts")
			}
		}
	}
}

// BenchmarkAblationAdmissionTest compares the two admission data
// structures of DESIGN.md §5.1 on identical on-line traces: O(1)
// instantaneous counters versus the full time-profile ledger.
func BenchmarkAblationAdmissionTest(b *testing.B) {
	cfg := workload.Default(workload.Flexible)
	cfg.Horizon = 1000
	reqs, err := cfg.Generate(9)
	if err != nil {
		b.Fatal(err)
	}
	net := cfg.Network()
	all := reqs.All()

	b.Run("counters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := alloc.NewCounters(net)
			accepted := 0
			for _, r := range all {
				bw := r.MinRate()
				if c.Fits(r.Ingress, r.Egress, bw) {
					// On-line semantics: hold for the transfer duration;
					// for the ablation we only measure the admission test,
					// so acquire without release (worst-case occupancy).
					if c.Acquire(r.Ingress, r.Egress, bw) == nil {
						accepted++
					}
				}
			}
			if accepted == 0 {
				b.Fatal("no admissions")
			}
		}
	})
	b.Run("ledger", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := alloc.NewSharded(net)
			accepted := 0
			for _, r := range all {
				g, err := request.NewGrant(r, r.Start, r.MinRate())
				if err != nil {
					continue
				}
				if l.Reserve(r, g) == nil {
					accepted++
				}
			}
			if accepted == 0 {
				b.Fatal("no admissions")
			}
		}
	})
}

// BenchmarkExperimentHarness compares serial and parallel replication
// execution on the same scenario — the harness's natural parallelism.
func BenchmarkExperimentHarness(b *testing.B) {
	cfg := workload.Default(workload.Rigid)
	cfg.Horizon = 400
	s := experiment.Scenario{Label: "bench", Workload: cfg, Scheduler: rigid.CumulatedSlots()}
	seeds := experiment.Seeds(1, 8)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiment.Run(s, seeds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiment.RunParallel(s, seeds, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSchedulerScaling measures how the main heuristics scale with
// workload size (the §7 scalability question, empirically): same offered
// load, growing horizon.
func BenchmarkSchedulerScaling(b *testing.B) {
	for _, horizon := range []units.Time{500, 2000, 8000} {
		cfg := workload.Default(workload.Flexible)
		cfg.Horizon = horizon
		reqs, err := cfg.Generate(1)
		if err != nil {
			b.Fatal(err)
		}
		net := cfg.Network()
		p := policy.FractionMaxRate(1)
		for _, s := range []sched.Scheduler{
			flexible.Greedy{Policy: p},
			flexible.Window{Policy: p, Step: 200},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", s.Name(), reqs.Len()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.Schedule(net, reqs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(reqs.Len())/float64(b.Elapsed().Seconds()/float64(b.N)), "requests/s")
			})
		}
	}
	// The rigid slot family is the heavy one: O(intervals × active).
	for _, horizon := range []units.Time{250, 1000} {
		cfg := workload.Default(workload.Rigid).WithLoad(2)
		cfg.Horizon = horizon
		reqs, err := cfg.Generate(1)
		if err != nil {
			b.Fatal(err)
		}
		net := cfg.Network()
		s := rigid.CumulatedSlots()
		b.Run(fmt.Sprintf("%s/n=%d", s.Name(), reqs.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(net, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- the stage budget of a submit --------------------------------------

// BenchmarkStages times, each on real data, the stages a framed submit
// passes through inside the daemon: "decode" the one-record frame,
// "global" the section under the server's lock that every submit takes (a
// submission refused there: lock, clock, checks), "idempotency" a submit
// answered from the idempotency cache (that section plus the lookup),
// "admit" admit.At with its booking on a dense pair (batch_dense's
// reference) and "admit-sparse" on a sparse one (what the wholes admit on),
// "record-encode" that accept's WAL record, "wal-append" the record
// appended under the interval fsync policy the benchmark's WAL workloads
// run, "ship-read" the primary's stream reading it back to ship it,
// "record-decode" the record as a follower decodes it before it acks,
// "encode" the one-item answer frame, and "expire" one grant's release at τ
// on a machine that holds about 20k live grants. Like "global", "expire"
// is summed into no path: a submit does not wait for it, but the daemon's
// lock does. The sums of these beside the measured wholes of
// each path — the residue is the transport's share — are BENCH_stages.json
// (scripts/stages.sh).
func BenchmarkStages(b *testing.B) {
	ws := wire.Submission{
		From: 0, To: 1, Volume: 1e9, MaxRate: 2e8, Deadline: 100, RelDeadline: true,
		IdempotencyKey: client.NewIdempotencyKey(),
	}
	frame := wire.AppendSubmitRequest(nil, &ws)
	newSrv := func(b *testing.B) *server.Server {
		srv, err := server.New(server.Config{
			Ingress: []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
			Egress:  []units.Bandwidth{10 * units.GBps, 10 * units.GBps},
			Policy:  "f=0.5",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		return srv
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeSubmitRequest(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("global", func(b *testing.B) {
		srv := newSrv(b)
		sub := server.Submission{From: 2, To: 1, Volume: 1e9, MaxRate: 2e8, Deadline: 100}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Submit(sub); err == nil {
				b.Fatal("an ingress out of range was admitted")
			}
		}
	})
	b.Run("idempotency", func(b *testing.B) {
		srv := newSrv(b)
		sub := server.Submission{From: 0, To: 1, Volume: 1e9, MaxRate: 2e8, Deadline: 1e6, IdempotencyKey: ws.IdempotencyKey}
		if d, err := srv.Submit(sub); err != nil || !d.Accepted {
			b.Fatalf("first submit = %+v, %v", d, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d, err := srv.Submit(sub); err != nil || d.ID != 0 {
				b.Fatalf("replay = %+v, %v", d, err)
			}
		}
	})
	// admitOn times admit.At on one pair that holds live grants of the
	// requests req(id) for id < live: each step books through a pair
	// transaction, as admitTx does, and gives its grant back whole (at −∞)
	// so the pair stays as dense.
	admitOn := func(b *testing.B, live int, req func(rng *rand.Rand, id int) request.Request) {
		net, err := topology.New(topology.Config{
			Ingress: []units.Bandwidth{10 * units.GBps}, Egress: []units.Bandwidth{10 * units.GBps},
		})
		if err != nil {
			b.Fatal(err)
		}
		l := alloc.NewSharded(net)
		pol := policy.FractionMaxRate(0.5)
		rng := rand.New(rand.NewSource(1))
		var tx alloc.PairTx
		for id := 0; id < live; id++ {
			r := req(rng, id)
			l.LockPair(&tx, 0, 0)
			_, no := admit.At(&tx, pol, r, r.Start)
			tx.Unlock()
			if no.Cause != admit.Admitted {
				b.Fatalf("seed grant %d: %v", id, no)
			}
		}
		never := units.Time(math.Inf(-1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := req(rng, live+i)
			l.LockPair(&tx, 0, 0)
			g, no := admit.At(&tx, pol, r, max(r.Start, tx.Floor()))
			tx.Unlock()
			if no.Cause != admit.Admitted {
				b.Fatalf("grant %d: %v", i, no)
			}
			l.Revoke(r, g, never)
		}
	}
	// A dense pair: a few hundred live grants, as on batch_dense.
	b.Run("admit", func(b *testing.B) {
		admitOn(b, 400, func(rng *rand.Rand, id int) request.Request {
			t0 := units.Time(rng.Float64() * 4000)
			return request.Request{ID: request.ID(id), Start: t0, Finish: t0 + 1000, Volume: 1e10, MaxRate: 2e7}
		})
	})
	// A sparse pair, as the direct, routed and quorum wholes admit on: the
	// submit of their loops (1 GB at f·MaxRate = 100 MB/s, a 100 s window)
	// every 2 s of the shared clock keeps about five grants live per pair.
	b.Run("admit-sparse", func(b *testing.B) {
		admitOn(b, 5, func(rng *rand.Rand, id int) request.Request {
			t0 := units.Time(rng.Float64() * 10)
			return request.Request{ID: request.ID(id), Start: t0, Finish: t0 + 100, Volume: 1e9, MaxRate: 2e8}
		})
	})
	// The record of one accepted submit, as the primary logs it.
	ev := trace.Event{
		At: 12.5, Kind: trace.EventAccept, Request: 4096, Ingress: 0, Egress: 1,
		RateBps: 1e8, SigmaS: 12.5, TauS: 22.5, VolumeB: 1e9, MaxRateBps: 2e8,
		Key: ws.IdempotencyKey,
	}
	payload, err := trace.AppendRecord(nil, &ev)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("record-encode", func(b *testing.B) {
		buf := make([]byte, 0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = trace.AppendRecord(buf[:0], &ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wal-append", func(b *testing.B) {
		l, _, err := wal.Open(b.TempDir(), wal.Options{Policy: wal.SyncInterval})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	// What a replication stream caught up on the log pays to read the
	// batch it ships, here the one record just appended: the read alone is
	// timed, the append (wal-append) is not.
	b.Run("ship-read", func(b *testing.B) {
		l, _, err := wal.Open(b.TempDir(), wal.Options{Policy: wal.SyncInterval})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		rd := l.NewReader()
		defer rd.Close()
		pos := l.End()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			got, _, next, err := rd.Read(pos, 512, 0)
			if err != nil || len(got) != 1 {
				b.Fatalf("read at %v: %d records, %v", pos, len(got), err)
			}
			pos = next
		}
	})
	b.Run("record-decode", func(b *testing.B) {
		var got trace.Event
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := trace.DecodeRecord(payload, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		res := []server.BatchResult{{Decision: server.Decision{
			ID: 4096, Accepted: true, State: server.StateActive, Rate: 1e8, Sigma: 12.5, Tau: 22.5,
		}}}
		buf := make([]byte, 0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = server.AppendBinaryBatchResponse(buf[:0], res)
		}
	})
	// One expiry fired on a state machine holding 20k live grants, as
	// batch_dense's daemon does (live_reservations_after_warmup ≈ 19k on 10
	// points): the queue's pop, the expiry, its give-back at τ and the
	// eviction of the oldest finished entry. Each fired grant is replaced,
	// untimed, by one granted from now, so the machine stays as full.
	b.Run("expire", func(b *testing.B) {
		const points, live, span = 10, 20000, 1000.0
		caps := make([]units.Bandwidth, points)
		for i := range caps {
			caps[i] = 10 * units.GBps
		}
		net, err := topology.New(topology.Config{Ingress: caps, Egress: caps})
		if err != nil {
			b.Fatal(err)
		}
		m := state.New(net, policy.FractionMaxRate(0.5), 4096)
		sim := des.New()
		m.Arm = func(at units.Time, fn des.Event) des.Handle { return sim.At(max(at, sim.Now()), fn) }
		rng := rand.New(rand.NewSource(1))
		accept := func(now units.Time) {
			id := int(m.NextID)
			if _, err := m.Apply(trace.Event{
				At: float64(now), Kind: trace.EventAccept, Request: id,
				Ingress: id % points, Egress: id / points % points,
				RateBps: 1e6, SigmaS: float64(now), TauS: float64(now) + span*(0.05+rng.Float64()),
			}); err != nil {
				b.Fatal(err)
			}
		}
		for range live {
			accept(0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !sim.Step() {
				b.Fatal("no expiry pending")
			}
			b.StopTimer()
			accept(sim.Now())
			b.StartTimer()
		}
	})
	b.Run("loopback", benchLoopback)
	// The call plumbing: one lookup, the cheapest call there is (its core is
	// a map read and the one-item answer frame), from client.Client down the
	// call stream to Server.Call and back.
	lookupLoop := func(b *testing.B, url string, hc *http.Client) {
		srv := newSrv(b)
		d, err := srv.Submit(server.Submission{From: 0, To: 1, Volume: 1e9, MaxRate: 2e8, Deadline: 1e6})
		if err != nil || !d.Accepted {
			b.Fatalf("submit = %+v, %v", d, err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		if url == "" {
			ts := httptest.NewServer(srv.Handler())
			b.Cleanup(ts.Close)
			url = ts.URL
		} else {
			l := newPipeListener()
			hc.Transport = &http.Transport{DialContext: l.dial}
			go hs.Serve(l)
			b.Cleanup(func() { hs.Close() })
		}
		c := client.New(url, hc)
		defer c.Close()
		ctx := context.Background()
		for i := 0; i < 2; i++ { // the first call upgrades; the second is on the stream
			if _, err := c.Get(ctx, int(d.ID)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Get(ctx, int(d.ID)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("call-pipe", func(b *testing.B) { lookupLoop(b, "http://pipe", &http.Client{}) })
	b.Run("call-tcp", func(b *testing.B) { lookupLoop(b, "", nil) })
}

// benchLoopback is the kernel floor of a call: a 64-byte ping-pong over a
// loopback TCP connection to an echo goroutine.
func benchLoopback(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var buf [64]byte
		for {
			if _, err := io.ReadFull(conn, buf[:]); err != nil {
				return
			}
			if _, err := conn.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	conn.Close()
	<-echoed
}

// pipeListener is a net.Listener whose connections are net.Pipe ends: dial
// hands the far end of each new pipe to Accept.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	cli, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return cli, nil
	case <-l.done:
	case <-ctx.Done():
	}
	cli.Close()
	srv.Close()
	return nil, net.ErrClosed
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
