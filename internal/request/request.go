// Package request defines the short-lived transfer requests of §2.1.
//
// A request r carries a requested transmission window [ts(r), tf(r)], a
// volume vol(r) and a host transmission cap MaxRate(r). From these the
// floor MinRate(r) = vol(r)/(tf(r)−ts(r)) is derived: any assigned
// bandwidth below it cannot move the volume inside the window. A request
// with MinRate = MaxRate is rigid (no scheduling freedom); one with
// MinRate < MaxRate is flexible.
//
// When a scheduler accepts r it produces a Grant: an assigned window
// [σ(r), τ(r)] and constant bandwidth bw(r) with
// τ(r) = σ(r) + vol(r)/bw(r) ≤ tf(r).
//
// The flexibility the paper's Figure 2 illustrates — a fixed-area
// rectangle sliding between the rate bounds:
//
//	bw ▲
//	   │  MaxRate ┌────┐         faster grant: τ well before tf
//	   │          │vol │
//	   │          └────┘
//	   │  MinRate ┌──────────────────┐   slowest grant: τ = tf
//	   │          │       vol        │
//	   └──────────┴──────────────────┴──▶ t
//	             ts                  tf
package request

import (
	"fmt"
	"math"

	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// ID identifies a request within a workload. IDs are dense and start at 0;
// they double as deterministic tie-breakers in the heuristics.
type ID int

// Request is one short-lived bulk transfer request.
type Request struct {
	ID      ID
	Ingress topology.PointID
	Egress  topology.PointID
	// Start and Finish delimit the requested transmission window
	// [ts(r), tf(r)].
	Start  units.Time
	Finish units.Time
	Volume units.Volume
	// MaxRate is the transmission limit of the attached host.
	MaxRate units.Bandwidth
}

// Finite reports whether every quantity of r is a finite number. Text
// formats cannot spell NaN or ±Inf but binary frames can, and every
// comparison below lets a NaN through.
func (r Request) Finite() bool {
	for _, x := range [...]float64{float64(r.Start), float64(r.Finish), float64(r.Volume), float64(r.MaxRate)} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of a request.
func (r Request) Validate() error {
	switch {
	case !r.Finite():
		return fmt.Errorf("request %d: non-finite volume, rate or time", r.ID)
	case r.Finish <= r.Start:
		return fmt.Errorf("request %d: empty window [%v, %v]", r.ID, r.Start, r.Finish)
	case r.Volume <= 0:
		return fmt.Errorf("request %d: non-positive volume %v", r.ID, r.Volume)
	case r.MaxRate <= 0:
		return fmt.Errorf("request %d: non-positive max rate %v", r.ID, r.MaxRate)
	}
	if r.MinRate() > r.MaxRate*(1+units.Eps) {
		return fmt.Errorf("request %d: infeasible: MinRate %v exceeds MaxRate %v",
			r.ID, r.MinRate(), r.MaxRate)
	}
	return nil
}

// WindowLength reports tf(r) − ts(r).
func (r Request) WindowLength() units.Time { return r.Finish - r.Start }

// MinRate reports vol(r)/(tf(r)−ts(r)), the slowest rate that still fits
// the requested window.
func (r Request) MinRate() units.Bandwidth {
	return r.Volume.Rate(r.WindowLength())
}

// EffectiveMinRate reports the floor when transmission starts at `at`
// instead of ts(r): vol(r)/(tf(r)−at). If at is past the point where even
// MaxRate cannot finish in time it may exceed MaxRate; callers must check.
// It panics when at >= tf(r).
func (r Request) EffectiveMinRate(at units.Time) units.Bandwidth {
	return r.Volume.Rate(r.Finish - at)
}

// Rigid reports whether the request has no bandwidth freedom
// (MinRate ≈ MaxRate).
func (r Request) Rigid() bool {
	return units.ApproxEq(float64(r.MinRate()), float64(r.MaxRate))
}

// Flexible reports whether MinRate < MaxRate strictly.
func (r Request) Flexible() bool { return !r.Rigid() }

// MinDuration reports the transfer time at MaxRate — the best case.
func (r Request) MinDuration() units.Time { return r.Volume.Over(r.MaxRate) }

// String implements fmt.Stringer.
func (r Request) String() string {
	return fmt.Sprintf("req%d[%d->%d %v @[%v,%v] <=%v]",
		r.ID, r.Ingress, r.Egress, r.Volume, r.Start, r.Finish, r.MaxRate)
}

// Grant records an accepted request's assignment.
type Grant struct {
	Request   ID
	Bandwidth units.Bandwidth
	// Sigma and Tau delimit the assigned window [σ(r), τ(r)].
	Sigma units.Time
	Tau   units.Time
}

// NewGrant computes the grant for request r started at sigma with
// bandwidth bw: τ = σ + vol/bw. It returns an error if the grant violates
// the request's constraints (rate bounds or deadline).
func NewGrant(r Request, sigma units.Time, bw units.Bandwidth) (Grant, error) {
	if bw <= 0 {
		return Grant{}, fmt.Errorf("grant for request %d: non-positive bandwidth %v", r.ID, bw)
	}
	if bw > r.MaxRate*(1+units.Eps) {
		return Grant{}, fmt.Errorf("grant for request %d: bandwidth %v exceeds MaxRate %v", r.ID, bw, r.MaxRate)
	}
	if sigma < r.Start {
		return Grant{}, fmt.Errorf("grant for request %d: start %v before requested %v", r.ID, sigma, r.Start)
	}
	tau := sigma + r.Volume.Over(bw)
	if tau > r.Finish*(1+units.Eps)+units.Eps {
		return Grant{}, fmt.Errorf("grant for request %d: finish %v past deadline %v", r.ID, tau, r.Finish)
	}
	return Grant{Request: r.ID, Bandwidth: bw, Sigma: sigma, Tau: tau}, nil
}

// Duration reports τ − σ.
func (g Grant) Duration() units.Time { return g.Tau - g.Sigma }

// String implements fmt.Stringer.
func (g Grant) String() string {
	return fmt.Sprintf("grant[req%d %v @[%v,%v]]", g.Request, g.Bandwidth, g.Sigma, g.Tau)
}

// Set is an ordered collection of requests with ID-indexed access.
// Requests must have dense IDs 0..n-1 matching their slice positions;
// NewSet enforces this.
type Set struct {
	reqs []Request
}

// NewSet validates the requests (dense IDs and per-request invariants)
// and returns a Set.
func NewSet(reqs []Request) (*Set, error) {
	for i, r := range reqs {
		if int(r.ID) != i {
			return nil, fmt.Errorf("request at index %d has ID %d (IDs must be dense)", i, r.ID)
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	cp := make([]Request, len(reqs))
	copy(cp, reqs)
	return &Set{reqs: cp}, nil
}

// MustNewSet is NewSet that panics on error; for tests and generators
// whose construction is correct by design.
func MustNewSet(reqs []Request) *Set {
	s, err := NewSet(reqs)
	if err != nil {
		panic("request: " + err.Error())
	}
	return s
}

// Len reports the number of requests (K in the paper).
func (s *Set) Len() int { return len(s.reqs) }

// Get returns request id. It panics on a bad ID.
func (s *Set) Get(id ID) Request {
	if id < 0 || int(id) >= len(s.reqs) {
		panic(fmt.Sprintf("request: ID %d out of range [0,%d)", id, len(s.reqs)))
	}
	return s.reqs[int(id)]
}

// All returns a copy of the request slice in ID order.
func (s *Set) All() []Request {
	cp := make([]Request, len(s.reqs))
	copy(cp, s.reqs)
	return cp
}

// Span reports the earliest Start and latest Finish across the set, or
// zeros for an empty set.
func (s *Set) Span() (start, finish units.Time) {
	if len(s.reqs) == 0 {
		return 0, 0
	}
	start, finish = s.reqs[0].Start, s.reqs[0].Finish
	for _, r := range s.reqs[1:] {
		if r.Start < start {
			start = r.Start
		}
		if r.Finish > finish {
			finish = r.Finish
		}
	}
	return start, finish
}

// TotalMinDemand reports Σ MinRate(r) — the numerator of the paper's load
// definition for rigid workloads (where bw(r) = MinRate(r)).
func (s *Set) TotalMinDemand() units.Bandwidth {
	var sum units.Bandwidth
	for _, r := range s.reqs {
		sum += r.MinRate()
	}
	return sum
}
