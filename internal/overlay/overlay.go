// Package overlay simulates the §5.4 control plane: a lightweight
// RSVP-like reservation protocol running on the fully-meshed grid overlay.
//
// A client submits its transfer request to its local ingress access
// router; the router consults the egress access router implied by the
// request (one overlay round trip), takes the admission decision locally,
// and returns the scheduled window and allocated rate to the client. The
// decision logic is the on-line admission of §5 (instantaneous occupancy
// plus a bandwidth policy); what this package adds is the message-level
// timing, so the control-plane overhead — reservation round-trip versus
// transfer duration — can be quantified (Table T5 of DESIGN.md).
package overlay

import (
	"fmt"
	"sort"

	"gridbw/internal/admit"
	"gridbw/internal/alloc"
	"gridbw/internal/des"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/sched"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// Config describes the control plane.
type Config struct {
	// ClientRouterDelay is the one-way latency between a client and its
	// access router.
	ClientRouterDelay units.Time
	// RouterRouterDelay is the one-way latency between overlay routers.
	RouterRouterDelay units.Time
	// Policy assigns bandwidth to admitted requests; required.
	Policy policy.Policy
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Policy == nil {
		return fmt.Errorf("overlay: config needs a policy")
	}
	if c.ClientRouterDelay < 0 || c.RouterRouterDelay < 0 {
		return fmt.Errorf("overlay: negative delays")
	}
	return nil
}

// Reservation records the control-plane trace of one request.
type Reservation struct {
	Request request.ID
	// SubmittedAt is ts(r), when the client issued the reservation.
	SubmittedAt units.Time
	// DecidedAt is when the ingress router took the decision.
	DecidedAt units.Time
	// RepliedAt is when the client learned the outcome.
	RepliedAt units.Time
	// Accepted and Grant mirror the scheduling decision.
	Accepted bool
	Grant    request.Grant
	Reason   string
}

// RTT reports the client-observed reservation round trip.
func (r Reservation) RTT() units.Time { return r.RepliedAt - r.SubmittedAt }

// Report is the outcome of a control-plane run.
type Report struct {
	Reservations []Reservation // in request-ID order
	Outcome      *sched.Outcome
	// EventsFired is the number of simulator events (control messages and
	// releases) processed.
	EventsFired uint64
}

// AcceptRate reports the fraction of accepted reservations.
func (rep *Report) AcceptRate() float64 {
	if len(rep.Reservations) == 0 {
		return 0
	}
	n := 0
	for _, r := range rep.Reservations {
		if r.Accepted {
			n++
		}
	}
	return float64(n) / float64(len(rep.Reservations))
}

// MeanRTT reports the mean reservation round trip.
func (rep *Report) MeanRTT() units.Time {
	if len(rep.Reservations) == 0 {
		return 0
	}
	var sum units.Time
	for _, r := range rep.Reservations {
		sum += r.RTT()
	}
	return sum / units.Time(len(rep.Reservations))
}

// MeanOverheadRatio reports the mean of RTT / transfer duration across
// accepted reservations — the §5.4 claim is that this is negligible for
// bulk transfers.
func (rep *Report) MeanOverheadRatio() float64 {
	var sum float64
	n := 0
	for _, r := range rep.Reservations {
		if r.Accepted && r.Grant.Duration() > 0 {
			sum += float64(r.RTT()) / float64(r.Grant.Duration())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Run simulates the reservation protocol for every request in reqs.
// Each request is submitted at its ts(r); the admission decision lands at
// ts(r) + ClientRouterDelay + 2·RouterRouterDelay, and the grant's σ is
// that decision instant (the ingress router cannot start a transfer it has
// not yet admitted).
func Run(net *topology.Network, reqs *request.Set, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := des.New()
	counters := alloc.NewCounters(net)
	out := sched.NewOutcome("overlay/"+cfg.Policy.Name(), net, reqs)
	resv := make([]Reservation, reqs.Len())

	decide := func(sim *des.Simulator, r request.Request) {
		now := sim.Now()
		rec := &resv[int(r.ID)]
		rec.DecidedAt = now
		// Release transfers finished by now before admitting.
		counters.AdvanceTo(now)
		g, no := admit.At(counters, cfg.Policy, r, now)
		if no.Cause != admit.Admitted {
			rec.Reason = no.String()
			out.Reject(r.ID, rec.Reason)
			return
		}
		rec.Accepted = true
		rec.Grant = g
		out.Accept(g)
	}

	// Decision order at equal instants must match arrival order with the
	// paper's MinRate tie-break, so sort before scheduling: des fires
	// same-time events FIFO in scheduling order.
	order := reqs.All()
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if am, bm := a.MinRate(), b.MinRate(); am != bm {
			return am < bm
		}
		return a.ID < b.ID
	})
	for _, r := range order {
		r := r
		resv[int(r.ID)] = Reservation{Request: r.ID, SubmittedAt: r.Start}
		decisionAt := r.Start + cfg.ClientRouterDelay + 2*cfg.RouterRouterDelay
		replyAt := decisionAt + cfg.ClientRouterDelay
		sim.At(decisionAt, func(sim *des.Simulator) { decide(sim, r) })
		sim.At(replyAt, func(sim *des.Simulator) { resv[int(r.ID)].RepliedAt = sim.Now() })
	}
	sim.Run()
	return &Report{Reservations: resv, Outcome: out, EventsFired: sim.Fired()}, nil
}
