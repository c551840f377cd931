package core

import (
	"fmt"
	"math"
	"sort"

	"gridbw/internal/admit"
	"gridbw/internal/alloc"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// Planner is the book-ahead (advance-reservation) service: unlike System,
// which decides against instantaneous occupancy, the Planner keeps full
// time profiles of every access point (alloc.Sharded) and can reserve
// transfers that start in the future — the "book-ahead periods" studied
// by the related work the paper compares against (§6, Burchard et al.).
//
// Given a transfer whose window [NotBefore, Deadline] may lie entirely in
// the future, Reserve finds the earliest feasible start within the window
// at the policy's rate and commits the reservation on both points.
type Planner struct {
	net    *topology.Network
	pol    policy.Policy
	ledger *alloc.Sharded
	now    units.Time
	nextID request.ID
	booked map[request.ID]booking

	submitted, accepted int
}

// booking is an accepted reservation: the request and the grant the
// ledger booked for it, which Cancel gives back.
type booking struct {
	r request.Request
	g request.Grant
}

// AdvanceTransfer is a transfer request that may start in the future.
type AdvanceTransfer struct {
	// From and To are ingress and egress point indices.
	From, To int
	Volume   units.Volume
	// NotBefore is the earliest admissible start (>= the planner clock).
	NotBefore units.Time
	// Deadline is the absolute instant by which the transfer must finish.
	Deadline units.Time
	// MaxRate is the host transmission cap.
	MaxRate units.Bandwidth
}

// Reservation is the planner's answer.
type Reservation struct {
	Accepted bool
	ID       request.ID
	Rate     units.Bandwidth
	Start    units.Time
	Finish   units.Time
	Reason   string
}

// NewPlanner builds a book-ahead service over the configured platform.
func NewPlanner(cfg Config) (*Planner, error) {
	net, err := topology.New(topology.Config{Ingress: cfg.Ingress, Egress: cfg.Egress})
	if err != nil {
		return nil, err
	}
	name := cfg.Policy
	if name == "" {
		name = "minbw"
	}
	pol, err := ParsePolicy(name)
	if err != nil {
		return nil, err
	}
	return &Planner{
		net: net, pol: pol,
		ledger: alloc.NewSharded(net),
		booked: make(map[request.ID]booking),
	}, nil
}

// Now reports the planner clock.
func (p *Planner) Now() units.Time { return p.now }

// AdvanceTo moves the clock forward. The ledger is time-indexed, so no
// bookkeeping is needed; the clock only forbids reserving in the past.
func (p *Planner) AdvanceTo(t units.Time) error {
	if t < p.now {
		return fmt.Errorf("core: clock cannot move from %v back to %v", p.now, t)
	}
	p.now = t
	return nil
}

// Stats reports lifetime counters.
func (p *Planner) Stats() (submitted, accepted int, rate float64) {
	if p.submitted > 0 {
		rate = float64(p.accepted) / float64(p.submitted)
	}
	return p.submitted, p.accepted, rate
}

// Reserve books the transfer at the earliest feasible start within its
// window, or rejects. The reservation holds a constant rate on both
// access points from the chosen start until the computed finish.
func (p *Planner) Reserve(tr AdvanceTransfer) (Reservation, error) {
	if tr.From < 0 || tr.From >= p.net.NumIngress() {
		return Reservation{}, fmt.Errorf("core: ingress %d out of range [0,%d)", tr.From, p.net.NumIngress())
	}
	if tr.To < 0 || tr.To >= p.net.NumEgress() {
		return Reservation{}, fmt.Errorf("core: egress %d out of range [0,%d)", tr.To, p.net.NumEgress())
	}
	notBefore := tr.NotBefore
	if notBefore < p.now {
		notBefore = p.now
	}
	r := request.Request{
		ID:      p.nextID,
		Ingress: topology.PointID(tr.From),
		Egress:  topology.PointID(tr.To),
		Start:   notBefore,
		Finish:  tr.Deadline,
		Volume:  tr.Volume,
		MaxRate: tr.MaxRate,
	}
	if err := r.Validate(); err != nil {
		return Reservation{}, fmt.Errorf("core: %w", err)
	}
	p.nextID++
	p.submitted++

	res, ok := p.tryReserve(r)
	if ok {
		p.accepted++
	}
	return res, nil
}

// tryReserve searches candidate starts: the window opening plus every
// usage breakpoint of the two involved profiles inside the feasible
// range. Free capacity is piecewise constant, so this candidate set
// contains the earliest feasible start if any exists.
func (p *Planner) tryReserve(r request.Request) (Reservation, bool) {
	// Latest start that can still meet the deadline even at MaxRate.
	latest := r.Finish - r.Volume.Over(r.MaxRate)
	if latest < r.Start {
		return Reservation{Reason: "window shorter than minimal transfer time"}, false
	}
	tx := p.ledger.Pair(r.Ingress, r.Egress)
	defer tx.Unlock()

	candidates := []units.Time{r.Start}
	candidates = append(candidates, tx.Ingress().BreakpointTimes(r.Start, latest)...)
	candidates = append(candidates, tx.Egress().BreakpointTimes(r.Start, latest)...)
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	var reason string
	for i, sigma := range candidates {
		if i > 0 && sigma == candidates[i-1] {
			continue
		}
		g, no := admit.At(tx, p.pol, r, sigma)
		switch no.Cause {
		case admit.Admitted:
			p.booked[r.ID] = booking{r, g}
			return Reservation{
				Accepted: true, ID: r.ID,
				Rate: g.Bandwidth, Start: g.Sigma, Finish: g.Tau,
			}, true
		case admit.Capacity:
			reason = "capacity"
		default:
			reason = no.String()
		}
	}
	return Reservation{ID: r.ID, Reason: reason}, false
}

// Cancel releases a previously accepted reservation, freeing its window
// on both points. Cancelling an unknown or already-cancelled ID is an
// error. A reservation may be cancelled even after its start — the grid
// job it served may have been aborted — releasing the remaining window.
func (p *Planner) Cancel(id request.ID) error {
	b, ok := p.booked[id]
	if !ok {
		return fmt.Errorf("core: no reservation %d", id)
	}
	// The planner's clock only forbids the past: nothing is forgotten, and
	// the whole grant goes back.
	p.ledger.Revoke(b.r, b.g, units.Time(math.Inf(-1)))
	delete(p.booked, id)
	p.accepted--
	return nil
}

// Lookup reports the committed grant of a reservation, if any.
func (p *Planner) Lookup(id request.ID) (request.Grant, bool) {
	b, ok := p.booked[id]
	return b.g, ok
}

// UtilizationIn reports the time-max utilization of ingress i over
// [from, to).
func (p *Planner) UtilizationIn(i int, from, to units.Time) float64 {
	var tx alloc.PointTx
	p.ledger.LockPointTx(&tx, topology.Ingress, topology.PointID(i))
	defer tx.Unlock()
	prof := tx.Profile()
	if prof.Capacity() == 0 {
		return 0
	}
	return float64(prof.MaxUsedIn(from, to)) / float64(prof.Capacity())
}
