package distributed

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"gridbw/internal/admit"
	"gridbw/internal/alloc"
	"gridbw/internal/des"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/sched/flexible"
	"gridbw/internal/topology"
	"gridbw/internal/units"
	"gridbw/internal/workload"
)

func flexReq(id int, in, eg topology.PointID, start units.Time, vol units.Volume, maxRate units.Bandwidth, slack float64) request.Request {
	return request.Request{
		ID: request.ID(id), Ingress: in, Egress: eg,
		Start: start, Finish: start + vol.Over(maxRate)*units.Time(slack),
		Volume: vol, MaxRate: maxRate,
	}
}

func testCfg() Config {
	return Config{SyncPeriod: 50, MsgDelay: 0.01, Policy: policy.FractionMaxRate(1)}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Policy: nil}).Validate(); err == nil {
		t.Error("nil policy accepted")
	}
	if err := (Config{Policy: policy.MinRate(), SyncPeriod: -1}).Validate(); err == nil {
		t.Error("negative sync accepted")
	}
}

func TestAcceptsWhenAmple(t *testing.T) {
	net := topology.Uniform(2, 2, 1*units.GBps)
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 0, 30*units.GB, 300*units.MBps, 3),
		flexReq(1, 1, 1, 5, 30*units.GB, 300*units.MBps, 3),
	})
	rep, err := Run(net, reqs, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range rep.Records {
		if rec.Verdict != Accepted {
			t.Errorf("request %d verdict = %v", rec.Request, rec.Verdict)
		}
	}
	if err := rep.Outcome.Verify(); err != nil {
		t.Error(err)
	}
	if rep.Rate(Accepted) != 1 {
		t.Errorf("accept rate = %v", rep.Rate(Accepted))
	}
}

func TestLocalRejectOnOwnIngress(t *testing.T) {
	net := topology.Uniform(1, 2, 1*units.GBps)
	// Two simultaneous full-rate transfers from the same ingress to
	// different egresses: the second is refused locally (ingress is the
	// bottleneck, and the ingress view is always exact).
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 0, 100*units.GB, 700*units.MBps, 3),
		flexReq(1, 0, 1, 0.001, 100*units.GB, 700*units.MBps, 3),
	})
	rep, err := Run(net, reqs, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records[0].Verdict != Accepted {
		t.Errorf("first = %v", rep.Records[0].Verdict)
	}
	if rep.Records[1].Verdict != LocalReject {
		t.Errorf("second = %v, want local-reject", rep.Records[1].Verdict)
	}
}

func TestConflictOnStaleEgressView(t *testing.T) {
	net := topology.Uniform(2, 1, 1*units.GBps)
	// Two ingresses race for the same egress within one sync period: both
	// local views say the egress is free; the later RESERVE must conflict.
	cfg := Config{SyncPeriod: 1000, MsgDelay: 0.01, Policy: policy.FractionMaxRate(1)}
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 1, 100*units.GB, 700*units.MBps, 3),
		flexReq(1, 1, 0, 2, 100*units.GB, 700*units.MBps, 3),
	})
	rep, err := Run(net, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records[0].Verdict != Accepted {
		t.Errorf("first = %v", rep.Records[0].Verdict)
	}
	if rep.Records[1].Verdict != Conflict {
		t.Errorf("second = %v, want conflict", rep.Records[1].Verdict)
	}
	if err := rep.Outcome.Verify(); err != nil {
		t.Error(err)
	}
}

func TestFreshSyncSeesCommittedLoad(t *testing.T) {
	net := topology.Uniform(2, 1, 1*units.GBps)
	// Same race, but the second request arrives after a sync refresh that
	// happens once the first commit landed: it is refused locally instead
	// of conflicting.
	cfg := Config{SyncPeriod: 5, MsgDelay: 0.01, Policy: policy.FractionMaxRate(1)}
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 1, 100*units.GB, 700*units.MBps, 3),
		flexReq(1, 1, 0, 7, 100*units.GB, 700*units.MBps, 3),
	})
	rep, err := Run(net, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records[1].Verdict != LocalReject {
		t.Errorf("second = %v, want local-reject after sync", rep.Records[1].Verdict)
	}
}

func TestRollbackFreesIngress(t *testing.T) {
	net := topology.Uniform(2, 1, 1*units.GBps)
	cfg := Config{SyncPeriod: 1000, MsgDelay: 0.01, Policy: policy.FractionMaxRate(1)}
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 1, 100*units.GB, 700*units.MBps, 5),   // wins the egress
		flexReq(1, 1, 0, 2, 100*units.GB, 700*units.MBps, 5),   // conflicts, rolls back ingress 1
		flexReq(2, 1, 0, 150, 100*units.GB, 700*units.MBps, 5), // after release: must fit
	})
	rep, err := Run(net, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records[1].Verdict != Conflict {
		t.Fatalf("second = %v", rep.Records[1].Verdict)
	}
	// Request 0 runs ~143 s from ~1.02; request 2 arrives at 150 after the
	// egress freed — and ingress 1 must have been rolled back.
	if rep.Records[2].Verdict != Accepted {
		t.Errorf("third = %v (%s)", rep.Records[2].Verdict,
			rep.Outcome.Decision(2).Reason)
	}
}

// TestReleaseAtTauPrecedesSameInstantCheck: capacity due back at τ is free
// for a check at τ, whichever of the two was scheduled first — an arrival
// (scheduled before the run), a sync tick (scheduled a period earlier) or a
// RESERVE (sent before the grant was confirmed) landing on a grant's end
// finds its booking over, as the daemon's admission does after advancing
// its clock.
func TestReleaseAtTauPrecedesSameInstantCheck(t *testing.T) {
	net := topology.Uniform(2, 1, 1*units.GBps)
	for _, tc := range []struct {
		name        string
		sync, delay units.Time
		first, next request.Request
		tau         units.Time
	}{
		// Request 0 holds ingress 0 and egress 0 over [0, 100); the next
		// one wants both from exactly 100.
		{"arrival", 0, 0,
			flexReq(0, 0, 0, 0, 100*units.GB, 1*units.GBps, 3),
			flexReq(1, 0, 0, 100, 100*units.GB, 1*units.GBps, 3), 100},
		// The tick at 100 refreshes ingress 1's view of egress 0, which a
		// request at 150 reads.
		{"sync tick", 100, 0,
			flexReq(0, 0, 0, 0, 100*units.GB, 1*units.GBps, 3),
			flexReq(1, 1, 0, 150, 100*units.GB, 1*units.GBps, 3), 100},
		// Request 0 holds egress 0 from its RESERVE at 10 until τ = 35 and
		// its CONFIRM lands at 30; request 1's RESERVE, sent at 25 on a
		// stale view, lands at 35.
		{"egress reserve", 1000, 10,
			flexReq(0, 0, 0, 0, 15*units.GB, 1*units.GBps, 3),
			flexReq(1, 1, 0, 25, 15*units.GB, 1*units.GBps, 3), 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs := request.MustNewSet([]request.Request{tc.first, tc.next})
			rep, err := Run(net, reqs, Config{SyncPeriod: tc.sync, MsgDelay: tc.delay, Policy: policy.FractionMaxRate(1)})
			if err != nil {
				t.Fatal(err)
			}
			if g := rep.Records[0].Grant; rep.Records[0].Verdict != Accepted || g.Tau != tc.tau {
				t.Fatalf("first = %v τ=%v, want accepted τ=%v", rep.Records[0].Verdict, g.Tau, tc.tau)
			}
			if rep.Records[1].Verdict != Accepted {
				t.Errorf("second = %v (%s), want accepted", rep.Records[1].Verdict, rep.Outcome.Decision(1).Reason)
			}
		})
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Accepted: "accepted", LocalReject: "local-reject",
		Conflict: "conflict", PolicyReject: "policy-reject",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
	if !strings.Contains(Verdict(9).String(), "9") {
		t.Error("unknown verdict string")
	}
}

// TestFeasibilityProperty: whatever the sync period, the committed
// outcome satisfies the paper's constraint system.
func TestFeasibilityProperty(t *testing.T) {
	cfg := workload.Default(workload.Flexible)
	cfg.Horizon = 250
	periods := []units.Time{0, 10, 100, 1000}
	f := func(seed int64) bool {
		reqs, err := cfg.Generate(seed)
		if err != nil {
			return false
		}
		net := cfg.Network()
		for _, p := range periods {
			rep, err := Run(net, reqs, Config{
				SyncPeriod: p, MsgDelay: 0.01, Policy: policy.FractionMaxRate(1),
			})
			if err != nil {
				return false
			}
			if rep.Outcome.Verify() != nil {
				return false
			}
			// Every record has a definite verdict and the rates sum to 1.
			total := rep.Rate(Accepted) + rep.Rate(LocalReject) + rep.Rate(Conflict) + rep.Rate(PolicyReject)
			if total < 1-1e-9 || total > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestStalenessHurts: with a very stale cache the conflict rate exceeds
// the read-through configuration's on a contended workload.
func TestStalenessHurts(t *testing.T) {
	cfg := workload.Default(workload.Flexible)
	cfg.Horizon = 1000
	cfg.MeanInterArrival = 1
	reqs, err := cfg.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	net := cfg.Network()
	run := func(sync units.Time) *Report {
		rep, err := Run(net, reqs, Config{SyncPeriod: sync, MsgDelay: 0.01, Policy: policy.FractionMaxRate(1)})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	fresh := run(0)
	stale := run(500)
	t.Logf("fresh: accept=%.3f conflict=%.3f; stale: accept=%.3f conflict=%.3f",
		fresh.Rate(Accepted), fresh.Rate(Conflict), stale.Rate(Accepted), stale.Rate(Conflict))
	if stale.Rate(Conflict) <= fresh.Rate(Conflict) {
		t.Errorf("staleness did not raise conflicts: %.3f <= %.3f",
			stale.Rate(Conflict), fresh.Rate(Conflict))
	}
}

// TestFreshDistributedTracksCentralized: with read-through state and zero
// delay, the distributed protocol decides every request as the §5 greedy
// scheduler does — the same verdict and, when accepted, the same grant bit
// for bit — over three loads and twenty seeds.
func TestFreshDistributedTracksCentralized(t *testing.T) {
	p := policy.FractionMaxRate(1)
	decisions := 0
	for _, gap := range []units.Time{0.5, 1, 3} {
		cfg := workload.Default(workload.Flexible)
		cfg.Horizon, cfg.MeanInterArrival = 400, gap
		net := cfg.Network()
		for seed := int64(0); seed < 20; seed++ {
			reqs, err := cfg.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(net, reqs, Config{SyncPeriod: 0, MsgDelay: 0, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			central, err := flexible.Greedy{Policy: p}.Schedule(net, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range rep.Records {
				want := central.Decision(rec.Request)
				if (rec.Verdict == Accepted) != want.Accepted || (want.Accepted && rec.Grant != want.Grant) {
					t.Errorf("gap=%v seed=%d request %d: distributed %v %v, greedy accepted=%v %v",
						gap, seed, rec.Request, rec.Verdict, rec.Grant, want.Accepted, want.Grant)
				}
				decisions++
			}
		}
	}
	t.Logf("%d decisions compared", decisions)
}

// TestHoldBooksFromDecisionInstant pins the span a hold books: from the
// instant its side decides it until τ, not the grant's [σ, τ). Request 0 is
// decided at 0 and granted [20, 30), so its ingress hold books [0, 30).
// Request 1 leaves the same ingress at 15 and would be granted [35, 45),
// which does not overlap [20, 30), yet it is refused: the ingress is booked
// at 15. Booking the grant's own span (distributed book-ahead) accepts it.
func TestHoldBooksFromDecisionInstant(t *testing.T) {
	net := topology.Uniform(1, 2, 1*units.GBps)
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 0, 10*units.GB, 1*units.GBps, 4),
		flexReq(1, 0, 1, 15, 10*units.GB, 1*units.GBps, 4),
	})
	rep, err := Run(net, reqs, Config{MsgDelay: 10, Policy: policy.FractionMaxRate(1)})
	if err != nil {
		t.Fatal(err)
	}
	if g := rep.Records[0].Grant; rep.Records[0].Verdict != Accepted || g.Sigma != 20 || g.Tau != 30 {
		t.Fatalf("first = %v %v, want accepted over [20, 30)", rep.Records[0].Verdict, g)
	}
	if got := rep.Records[1].Verdict; got != LocalReject {
		t.Errorf("second = %v, want local-reject: the first hold books its ingress from 0", got)
	}
}

// TestBookerRefusalsLeaveLedger drives the ingress booker into Capacity
// through each of its two checks — a stale egress reading, then the
// ingress's own point — and finds the ledger as it was both times.
func TestBookerRefusalsLeaveLedger(t *testing.T) {
	net := topology.Uniform(1, 1, 1*units.GBps)
	r := flexReq(0, 0, 0, 0, 10*units.GB, 500*units.MBps, 3)
	for _, tc := range []struct {
		name          string
		view, ingress units.Bandwidth
		dir           topology.Direction
	}{
		{"stale view", 600 * units.MBps, 0, topology.Egress},
		{"ingress", 0, 600 * units.MBps, topology.Ingress},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ru := &runner{
				cfg: Config{SyncPeriod: 50, Policy: policy.FractionMaxRate(1)}, net: net, sim: des.New(),
				ledger: alloc.NewSharded(net), view: []units.Bandwidth{tc.view},
			}
			if tc.ingress > 0 {
				if err := ru.ledger.HoldReserve(topology.Ingress, 0, 0, 100, tc.ingress); err != nil {
					t.Fatal(err)
				}
			}
			usage := func() (out [][]units.Bandwidth) {
				for _, at := range []units.Time{0, 10, 20, 99, 100} {
					in, eg := ru.ledger.UsageAt(at)
					out = append(out, in, eg)
				}
				return out
			}
			before := usage()
			_, no := admit.At(booker{ru}, ru.cfg.Policy, r, 0)
			var ce *alloc.CapacityError
			if no.Cause != admit.Capacity || !errors.As(no.Err, &ce) || ce.Dir != tc.dir {
				t.Fatalf("refusal = %v (%v), want capacity at the %v", no.Cause, no.Err, tc.dir)
			}
			if after := usage(); !reflect.DeepEqual(before, after) {
				t.Errorf("ledger moved: %v, was %v", after, before)
			}
			if err := ru.ledger.CheckInvariant(); err != nil {
				t.Error(err)
			}
		})
	}
}
