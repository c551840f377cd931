package distributed

import (
	"fmt"
	"testing"

	"gridbw/internal/alloc"
	"gridbw/internal/faults"
	"gridbw/internal/metrics"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/units"
	"gridbw/internal/workload"
)

func abs(t units.Time) units.Time {
	if t < 0 {
		return -t
	}
	return t
}

// holdKey identifies one side of one request's hold.
type holdKey struct {
	dir topology.Direction
	id  request.ID
}

// mirror audits the protocol from outside: it replays every Observer
// event into independent alloc.Profile instances (one per access point),
// so any instant of occupancy beyond Bin/Bout surfaces as a Reserve
// error, and it enforces that each request holds at most once per side.
type mirror struct {
	t    *testing.T
	net  *topology.Network
	open map[holdKey]HoldEvent
	in   []*alloc.Profile
	eg   []*alloc.Profile
}

func newMirror(t *testing.T, net *topology.Network) *mirror {
	m := &mirror{t: t, net: net, open: make(map[holdKey]HoldEvent)}
	for i := 0; i < net.NumIngress(); i++ {
		m.in = append(m.in, alloc.NewProfile(net.Bin(topology.PointID(i))))
	}
	for e := 0; e < net.NumEgress(); e++ {
		m.eg = append(m.eg, alloc.NewProfile(net.Bout(topology.PointID(e))))
	}
	return m
}

func (m *mirror) profile(ev HoldEvent) *alloc.Profile {
	if ev.Dir == topology.Ingress {
		return m.in[int(ev.Point)]
	}
	return m.eg[int(ev.Point)]
}

func (m *mirror) observe(ev HoldEvent) {
	k := holdKey{dir: ev.Dir, id: ev.Request}
	switch ev.Kind {
	case HoldAcquire:
		if prev, dup := m.open[k]; dup {
			m.t.Errorf("request %d held twice at %s %d (first at %v, again at %v): duplicated message booked twice",
				ev.Request, ev.Dir, ev.Point, prev.At, ev.At)
			return
		}
		m.open[k] = ev
	case HoldRelease, HoldCommit:
		start, ok := m.open[k]
		if !ok {
			m.t.Errorf("request %d released/committed at %s %d without a hold", ev.Request, ev.Dir, ev.Point)
			return
		}
		delete(m.open, k)
		end := ev.At
		if ev.Kind == HoldCommit {
			end = ev.Until
		}
		if end <= start.At {
			return // degenerate span: held and released in the same instant
		}
		// Reserving the hold's exact lifetime re-checks equation (1)
		// against every other hold that ever overlapped it.
		if err := m.profile(ev).Reserve(start.At, end, start.Bandwidth); err != nil {
			m.t.Errorf("capacity overshoot at %s %d: %v", ev.Dir, ev.Point, err)
		}
	}
}

// finish asserts quiescence: no hold left unresolved.
func (m *mirror) finish() {
	for k, ev := range m.open {
		m.t.Errorf("orphaned hold after quiescence: request %d at %s %d (acquired %v)",
			k.id, ev.Dir, ev.Point, ev.At)
	}
}

// TestFaultInjectionInvariants runs the protocol under randomized
// drop/delay/duplicate/crash schedules across 25 (schedule, seed) pairs
// and asserts the robustness invariants: no capacity overshoot at any
// instant, no orphaned hold after quiescence, no double booking under
// duplication, and every record resolving to a definite verdict.
func TestFaultInjectionInvariants(t *testing.T) {
	schedules := []faults.Config{
		{Drop: 0.25},
		{Duplicate: 0.5},
		{Jitter: 0.2},
		{MeanUp: 40, MeanDown: 4},
		{Drop: 0.2, Duplicate: 0.3, Jitter: 0.15, MeanUp: 30, MeanDown: 5},
	}
	wl := workload.Default(workload.Flexible)
	wl.Horizon = 200
	for si, fc := range schedules {
		for seed := int64(0); seed < 5; seed++ {
			fc := fc
			fc.Seed = int64(si)*1000 + seed
			t.Run(fmt.Sprintf("schedule%d/seed%d", si, seed), func(t *testing.T) {
				reqs, err := wl.Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				net := wl.Network()
				inj, err := faults.New(fc)
				if err != nil {
					t.Fatal(err)
				}
				mir := newMirror(t, net)
				rep, err := Run(net, reqs, Config{
					SyncPeriod:     20,
					MsgDelay:       0.05,
					ReserveTimeout: 1.5,
					RetryInterval:  0.4,
					Policy:         policy.FractionMaxRate(1),
					Faults:         inj,
					Observer:       mir.observe,
				})
				if err != nil {
					t.Fatal(err)
				}
				mir.finish()
				if rep.Faults.Leaks != 0 {
					t.Errorf("leaked holds after quiescence: %d", rep.Faults.Leaks)
				}
				// The committed outcome must satisfy the paper's
				// constraint system, re-checked by a fresh ledger.
				if err := rep.Outcome.Verify(); err != nil {
					t.Errorf("outcome verify: %v", err)
				}
				ledger := alloc.NewSharded(net)
				for _, rec := range rep.Records {
					if rec.Verdict != Accepted {
						continue
					}
					r := reqs.Get(rec.Request)
					if err := ledger.Reserve(r, rec.Grant); err != nil {
						t.Errorf("accepted set infeasible: %v", err)
					}
				}
				total := rep.Rate(Accepted) + rep.Rate(LocalReject) + rep.Rate(Conflict) +
					rep.Rate(PolicyReject) + rep.Rate(Timeout)
				if total < 1-1e-9 || total > 1+1e-9 {
					t.Errorf("verdict rates sum to %v", total)
				}
			})
		}
	}
}

// TestReserveTimeoutRollsBack: with the channel fully severed, the
// tentative ingress hold rolls back at exactly start + ReserveTimeout
// instead of leaking.
func TestReserveTimeoutRollsBack(t *testing.T) {
	net := topology.Uniform(1, 1, 1*units.GBps)
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 10, 30*units.GB, 300*units.MBps, 3),
	})
	inj, err := faults.New(faults.Config{Seed: 1, Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	var events []HoldEvent
	rep, err := Run(net, reqs, Config{
		MsgDelay: 0.01, ReserveTimeout: 2, RetryInterval: 0.5,
		Policy: policy.FractionMaxRate(1), Faults: inj,
		Observer: func(ev HoldEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Records[0].Verdict; got != Timeout {
		t.Fatalf("verdict = %v, want timeout", got)
	}
	if rep.Faults.Timeouts != 1 {
		t.Errorf("timeouts = %d", rep.Faults.Timeouts)
	}
	if rep.Faults.Leaks != 0 {
		t.Errorf("leaks = %d", rep.Faults.Leaks)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want acquire + release", len(events))
	}
	if events[0].Kind != HoldAcquire || events[0].At != 10 {
		t.Errorf("acquire = %+v", events[0])
	}
	if events[1].Kind != HoldRelease || events[1].At != 12 {
		t.Errorf("release = %+v, want rollback at exactly start+timeout = 12", events[1])
	}
}

// TestDuplicatesAreIdempotent: with every message duplicated, commits
// happen exactly once per side — the mirror flags any double hold — and
// the accept set matches the perfect-network run.
func TestDuplicatesAreIdempotent(t *testing.T) {
	net := topology.Uniform(2, 2, 1*units.GBps)
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 0, 30*units.GB, 300*units.MBps, 3),
		flexReq(1, 1, 0, 1, 30*units.GB, 300*units.MBps, 3),
		flexReq(2, 0, 1, 2, 30*units.GB, 300*units.MBps, 3),
	})
	inj, err := faults.New(faults.Config{Seed: 2, Duplicate: 1})
	if err != nil {
		t.Fatal(err)
	}
	mir := newMirror(t, net)
	rep, err := Run(net, reqs, Config{
		MsgDelay: 0.01, ReserveTimeout: 2, RetryInterval: 0.5,
		Policy: policy.FractionMaxRate(1), Faults: inj, Observer: mir.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	mir.finish()
	for _, rec := range rep.Records {
		if rec.Verdict != Accepted {
			t.Errorf("request %d = %v, want accepted", rec.Request, rec.Verdict)
		}
	}
	if rep.Faults.Duplicated == 0 {
		t.Error("no duplicates injected")
	}
	if rep.Faults.Leaks != 0 {
		t.Errorf("leaks = %d", rep.Faults.Leaks)
	}
}

// TestConflictRollbackReleasesExactShare mirrors the NACKed ingress hold
// into an alloc.Ledger and asserts, via UsageAt, that the rollback
// releases exactly the held share at exactly arrival + 2·MsgDelay (the
// NACK round trip).
func TestConflictRollbackReleasesExactShare(t *testing.T) {
	net := topology.Uniform(2, 1, 1*units.GBps)
	const msgDelay = units.Time(0.01)
	// Two ingresses race for the one egress within a stale sync period:
	// request 1 is NACKed and must roll back its ingress-1 hold.
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 1, 100*units.GB, 700*units.MBps, 3),
		flexReq(1, 1, 0, 2, 100*units.GB, 700*units.MBps, 3),
	})
	var loserHold, loserFree *HoldEvent
	rep, err := Run(net, reqs, Config{
		SyncPeriod: 1000, MsgDelay: msgDelay, Policy: policy.FractionMaxRate(1),
		Observer: func(e HoldEvent) {
			ev := e
			if ev.Request != 1 || ev.Dir != topology.Ingress {
				return
			}
			switch ev.Kind {
			case HoldAcquire:
				loserHold = &ev
			case HoldRelease:
				loserFree = &ev
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records[1].Verdict != Conflict {
		t.Fatalf("verdict = %v, want conflict", rep.Records[1].Verdict)
	}
	if loserHold == nil || loserFree == nil {
		t.Fatal("observer missed the loser's hold lifecycle")
	}
	if loserHold.At != 2 {
		t.Errorf("hold acquired at %v, want arrival time 2", loserHold.At)
	}
	if want := (units.Time(2) + msgDelay) + msgDelay; abs(loserFree.At-want) > 1e-12 {
		t.Errorf("hold released at %v, want exactly %v (NACK round trip)", loserFree.At, want)
	}

	// Replay the hold's lifetime through a ledger and interrogate it with
	// UsageAt: the share is present strictly inside [hold, release) and
	// gone from the release instant on.
	ledger := alloc.NewSharded(net)
	r := request.Request{
		ID: 1, Ingress: 1, Egress: 0,
		Start: loserHold.At, Finish: loserFree.At,
		Volume:  loserHold.Bandwidth.For(loserFree.At - loserHold.At),
		MaxRate: loserHold.Bandwidth,
	}
	g := request.Grant{Request: 1, Bandwidth: loserHold.Bandwidth, Sigma: loserHold.At, Tau: loserFree.At}
	if err := ledger.Reserve(r, g); err != nil {
		t.Fatal(err)
	}
	mid := (loserHold.At + loserFree.At) / 2
	if in, _ := ledger.UsageAt(mid); in[1] != loserHold.Bandwidth {
		t.Errorf("UsageAt(%v) ingress 1 = %v, want held share %v", mid, in[1], loserHold.Bandwidth)
	}
	if in, _ := ledger.UsageAt(loserFree.At); in[1] != 0 {
		t.Errorf("UsageAt(%v) ingress 1 = %v, want 0 after rollback", loserFree.At, in[1])
	}
	if in, _ := ledger.UsageAt(loserHold.At - 0.001); in[1] != 0 {
		t.Errorf("usage before the hold = %v, want 0", in[1])
	}
}

// TestVerdictStringTimeout covers the new verdict's rendering.
func TestVerdictStringTimeout(t *testing.T) {
	if Timeout.String() != "timeout" {
		t.Errorf("Timeout.String() = %q", Timeout.String())
	}
}

// TestValidateFaultConfig: fault injection without a reservation timeout
// is rejected — lost messages would leak tentative holds forever.
func TestValidateFaultConfig(t *testing.T) {
	inj, err := faults.New(faults.Config{Drop: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MsgDelay: 0.01, Policy: policy.MinRate(), Faults: inj}
	if err := cfg.Validate(); err == nil {
		t.Error("faulty config without ReserveTimeout accepted")
	}
	cfg.ReserveTimeout = 1
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	if err := (Config{Policy: policy.MinRate(), ReserveTimeout: -1}).Validate(); err == nil {
		t.Error("negative timeout accepted")
	}
}

// TestUnreachableDeadlineRunsNoHandshake: the strict MinRate policy sizes
// the rate for the requested window, so with a message delay the grant
// ends past the deadline. The request is refused at arrival, as the
// daemon's ingress refuses it: no hold is taken and no message is sent.
func TestUnreachableDeadlineRunsNoHandshake(t *testing.T) {
	net := topology.Uniform(1, 1, 1*units.GBps)
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 10, 30*units.GB, 300*units.MBps, 3),
	})
	inj, err := faults.New(faults.Config{Seed: 3, Drop: 0.2, Duplicate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var events []HoldEvent
	rep, err := Run(net, reqs, Config{
		MsgDelay: 0.01, ReserveTimeout: 1.5, RetryInterval: 0.4,
		Policy: policy.StrictRequestedMinRate(), Faults: inj,
		Observer: func(ev HoldEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Records[0].Verdict; got != PolicyReject {
		t.Errorf("verdict = %v, want policy-reject", got)
	}
	if len(events) != 0 {
		t.Errorf("observer saw %d hold events, first %+v; want none", len(events), events[0])
	}
	if rep.Faults != (metrics.FaultCounters{}) {
		t.Errorf("fault counters = %+v, want all zero", rep.Faults)
	}
}

// TestReserveAfterTauIsRefused: a RESERVE whose copies are dropped until the
// grant's τ has passed finds nothing left to book, and the egress NACKs it
// as the daemon's egress refuses a proposed grant with τ ≤ σ. Here the grant
// is [0.02, 0.32) and the first copy to survive lands at 0.41.
func TestReserveAfterTauIsRefused(t *testing.T) {
	net := topology.Uniform(1, 1, 1*units.GBps)
	reqs := request.MustNewSet([]request.Request{
		flexReq(0, 0, 0, 0, 300*units.MB, 1*units.GBps, 3),
	})
	inj, err := faults.New(faults.Config{Seed: 0, Drop: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	mir := newMirror(t, net)
	rep, err := Run(net, reqs, Config{
		MsgDelay: 0.01, ReserveTimeout: 1.5, RetryInterval: 0.4,
		Policy: policy.FractionMaxRate(1), Faults: inj,
		Observer: func(ev HoldEvent) {
			if ev.Dir == topology.Egress {
				t.Errorf("egress booked at %v: %+v", ev.At, ev)
			}
			mir.observe(ev)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mir.finish()
	if got := rep.Records[0]; got.Verdict != Conflict {
		t.Errorf("verdict = %v grant %v, want conflict", got.Verdict, got.Grant)
	}
	if rep.Faults.Conflicts != 1 || rep.Faults.Leaks != 0 {
		t.Errorf("conflicts = %d leaks = %d, want 1 and 0", rep.Faults.Conflicts, rep.Faults.Leaks)
	}
}
