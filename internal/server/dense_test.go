package server_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gridbw/internal/core"
	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/topology"
	"gridbw/internal/units"
	"gridbw/internal/workload"
)

// Dense traffic, shaped like the end-to-end benchmark's batch_dense
// workload (bench/workloads.go): a 10×10 platform at 10 GB/s per point,
// offered load 1.5, policy f=0.5, the paper's volume ladder scaled by 1/30,
// host rates of 10–100 MB/s, the paper's flexible window slack, and 30%
// book-ahead of which a third starts two ring horizons out. It keeps every
// profile thousands of breakpoints deep, which is where the profile store
// earns its keep.
const (
	densePoints   = 10
	denseCapacity = 10 * units.GBps
	denseLoad     = 1.5
	denseBatch    = 64
	denseHorizon  = 4096.0 // seconds; near book-ahead starts within a quarter of it
)

type denseGen struct {
	rng                *rand.Rand
	vols               []units.Volume
	meanGap            float64
	slackMin, slackMax float64
}

func newDenseGen(seed int64) *denseGen {
	flex := workload.Default(workload.Flexible)
	g := &denseGen{rng: rand.New(rand.NewSource(seed)), slackMin: flex.SlackMin, slackMax: flex.SlackMax}
	for _, v := range workload.PaperVolumes() {
		g.vols = append(g.vols, v/30)
	}
	g.meanGap = float64(workload.MeanVolume(g.vols)) / (denseLoad * float64(denseCapacity) * densePoints)
	return g
}

// next draws one submission with times relative to the instant it is sent,
// and the inter-arrival gap it stands for.
func (g *denseGen) next() (sub server.Submission, gap float64) {
	sub = server.Submission{
		From:    g.rng.Intn(densePoints),
		To:      g.rng.Intn(densePoints),
		Volume:  g.vols[g.rng.Intn(len(g.vols))],
		MaxRate: units.Bandwidth(10e6 + g.rng.Float64()*90e6),
	}
	slack := g.slackMin + g.rng.Float64()*(g.slackMax-g.slackMin)
	if g.rng.Float64() < 0.30 {
		if g.rng.Intn(3) == 0 {
			sub.NotBefore = units.Time(2*denseHorizon + g.rng.Float64()*denseHorizon/4)
		} else {
			sub.NotBefore = units.Time(1 + g.rng.Float64()*(denseHorizon/4-1))
		}
	}
	sub.Deadline = sub.NotBefore + units.Time(slack)*sub.Volume.Over(sub.MaxRate)
	return sub, g.rng.ExpFloat64() * g.meanGap
}

// batch fills subs with the next submissions, advances the clock by the
// gaps they stand for and anchors their windows at the new instant.
func (g *denseGen) batch(subs []server.Submission, clk *fakeClock, srv *server.Server) {
	gap := 0.0
	for i := range subs {
		var d float64
		subs[i], d = g.next()
		gap += d
	}
	clk.advance(time.Duration(gap * float64(time.Second)))
	now := srv.Now()
	for i := range subs {
		subs[i].NotBefore += now
		subs[i].Deadline += now
	}
}

func denseServer(tb testing.TB) (*server.Server, *fakeClock) {
	clk := &fakeClock{}
	return denseServerOn(tb, clk), clk
}

func denseServerOn(tb testing.TB, clk *fakeClock) *server.Server {
	tb.Helper()
	caps := make([]units.Bandwidth, densePoints)
	for i := range caps {
		caps[i] = denseCapacity
	}
	srv, err := server.New(server.Config{Ingress: caps, Egress: caps, Policy: "f=0.5", Clock: clk.now})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv
}

// flatOracle is an access point's usage kept the plain way: one sorted
// breakpoint list, every operation a linear pass. Each instant's usage
// goes through the same float additions, in the same order, as in the
// daemon's profile, so the two agree to the bit on every capacity check.
type flatOracle struct {
	capacity units.Bandwidth
	times    []units.Time // usage[i] holds on [times[i], times[i+1]); 0 before times[0]
	usage    []units.Bandwidth
}

// at returns the index of the breakpoint at t, inserting one if need be.
func (o *flatOracle) at(t units.Time) int {
	i, found := slices.BinarySearch(o.times, t)
	if !found {
		var u units.Bandwidth
		if i > 0 {
			u = o.usage[i-1]
		}
		o.times = slices.Insert(o.times, i, t)
		o.usage = slices.Insert(o.usage, i, u)
	}
	return i
}

func (o *flatOracle) fits(t0, t1 units.Time, bw units.Bandwidth) bool {
	i, found := slices.BinarySearch(o.times, t0)
	if !found && i > 0 {
		i-- // the segment t0 falls in
	}
	var used units.Bandwidth
	for ; i < len(o.times) && o.times[i] < t1; i++ {
		used = max(used, o.usage[i])
	}
	return units.FitsWithin(used, bw, o.capacity)
}

func (o *flatOracle) add(t0, t1 units.Time, bw units.Bandwidth) {
	i0 := o.at(t0)
	i1 := o.at(t1)
	for i := i0; i < i1; i++ {
		if o.usage[i] += bw; o.usage[i] < 0 {
			o.usage[i] = 0 // rounding residue of a release; the profile clamps it too
		}
	}
	// Drop the breakpoints of [t0, t1] at which usage no longer changes,
	// so the list tracks the live grants instead of every grant ever made.
	w := max(i0, 1)
	for i := w; i <= i1; i++ {
		if o.usage[i] != o.usage[w-1] {
			o.times[w], o.usage[w] = o.times[i], o.usage[i]
			w++
		}
	}
	o.times = slices.Delete(o.times, w, i1+1)
	o.usage = slices.Delete(o.usage, w, i1+1)
}

type denseGrant struct {
	id         request.ID
	in, eg     int
	sigma, tau units.Time
	bw         units.Bandwidth
}

// TestDenseBatchesMatchFlatOracle is the daemon-level differential: 40k
// dense submissions (20k under the race detector) in 64-item batches, with cancels, on an injected clock
// that also expires grants, every decision re-judged against flat-oracle
// profiles that are fed exactly the grants the daemon made. A submission
// is accepted if and only if the oracle fits the policy's grant on both
// sides, and an accepted one carries exactly that grant.
func TestDenseBatchesMatchFlatOracle(t *testing.T) {
	srv, clk := denseServer(t)
	pol, err := core.ParsePolicy("f=0.5")
	if err != nil {
		t.Fatal(err)
	}
	var in, eg [densePoints]flatOracle
	for i := range in {
		in[i].capacity, eg[i].capacity = denseCapacity, denseCapacity
	}
	release := func(g denseGrant) {
		in[g.in].add(g.sigma, g.tau, -g.bw)
		eg[g.eg].add(g.sigma, g.tau, -g.bw)
	}
	var live []denseGrant
	gen := newDenseGen(7)
	rng := rand.New(rand.NewSource(8))
	subs := make([]server.Submission, denseBatch)
	order := make([]int, denseBatch)
	accepted, refused, cancelled, expired := 0, 0, 0, 0
	total := 40000
	if raceEnabled {
		total = 20000 // the detector slows the daemon's side tenfold
	}
	for batch := 0; batch < total/denseBatch; batch++ {
		gen.batch(subs, clk, srv)
		now := srv.Now()
		// The daemon fires due expiries, in τ order, before it decides.
		slices.SortFunc(live, func(a, b denseGrant) int {
			return cmp.Or(cmp.Compare(a.tau, b.tau), cmp.Compare(a.id, b.id))
		})
		n := 0
		for n < len(live) && live[n].tau <= now {
			release(live[n])
			n++
		}
		live, expired = live[n:], expired+n

		results, err := srv.SubmitBatch(subs)
		if err != nil {
			t.Fatal(err)
		}
		// It decides a batch in (ingress, egress, input) order.
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Or(cmp.Compare(subs[a].From, subs[b].From), cmp.Compare(subs[a].To, subs[b].To))
		})
		for _, i := range order {
			sub, res := subs[i], results[i]
			if res.Err != nil {
				t.Fatalf("batch %d item %d: %v", batch, i, res.Err)
			}
			d := res.Decision
			r := request.Request{
				ID: d.ID, Ingress: topology.PointID(sub.From), Egress: topology.PointID(sub.To),
				Start: max(sub.NotBefore, now), Finish: sub.Deadline, Volume: sub.Volume, MaxRate: sub.MaxRate,
			}
			bw, err := pol.Assign(r, r.Start)
			if err != nil {
				t.Fatalf("batch %d item %d: policy: %v", batch, i, err)
			}
			g, err := request.NewGrant(r, r.Start, bw)
			if err != nil {
				t.Fatalf("batch %d item %d: grant: %v", batch, i, err)
			}
			fits := in[sub.From].fits(g.Sigma, g.Tau, g.Bandwidth) && eg[sub.To].fits(g.Sigma, g.Tau, g.Bandwidth)
			if d.Accepted != fits {
				t.Fatalf("batch %d item %d (%d->%d, %v on [%v, %v)): daemon accepted=%v (%s), flat oracle fits=%v",
					batch, i, sub.From, sub.To, g.Bandwidth, g.Sigma, g.Tau, d.Accepted, d.Reason, fits)
			}
			if !fits {
				refused++
				continue
			}
			if d.Sigma != g.Sigma || d.Tau != g.Tau || d.Rate != g.Bandwidth {
				t.Fatalf("batch %d item %d: daemon granted %v on [%v, %v), oracle %v on [%v, %v)",
					batch, i, d.Rate, d.Sigma, d.Tau, g.Bandwidth, g.Sigma, g.Tau)
			}
			accepted++
			in[sub.From].add(g.Sigma, g.Tau, g.Bandwidth)
			eg[sub.To].add(g.Sigma, g.Tau, g.Bandwidth)
			live = append(live, denseGrant{d.ID, sub.From, sub.To, g.Sigma, g.Tau, g.Bandwidth})
		}
		// Cancel a few live grants, booked-ahead ones included.
		for c := 0; c < 4 && len(live) > 0; c++ {
			k := rng.Intn(len(live))
			if _, err := srv.Cancel(live[k].id); err != nil {
				t.Fatalf("batch %d: cancel %d: %v", batch, live[k].id, err)
			}
			release(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			cancelled++
		}
	}
	if err := srv.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.LiveReservations()); got != len(live) {
		t.Fatalf("daemon holds %d live reservations, oracle %d", got, len(live))
	}
	t.Logf("%d accepted, %d refused, %d cancelled, %d expired, %d live", accepted, refused, cancelled, expired, len(live))
	if refused < 500 || expired < 1000 || len(live) < 1000 {
		t.Fatalf("trace is not dense: %d refused, %d expired, %d live", refused, expired, len(live))
	}
}

// BenchmarkSubmitBatchDense times one 64-item SubmitBatch against warm
// dense profiles — the traffic a CPU profile of the admission kernel
// should be taken on:
//
//	go test -run '^$' -bench SubmitBatchDense -cpuprofile cpu.prof ./internal/server
func BenchmarkSubmitBatchDense(b *testing.B) {
	srv, clk := denseServer(b)
	gen := newDenseGen(1)
	subs := make([]server.Submission, denseBatch)
	submit := func() {
		gen.batch(subs, clk, srv)
		if _, err := srv.SubmitBatch(subs); err != nil {
			b.Fatal(err)
		}
	}
	// Occupancy and the far book-ahead share settle after ~100k decisions.
	for i := 0; i < 131072/denseBatch; i++ {
		submit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*denseBatch), "ns/item")
}
