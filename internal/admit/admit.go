// Package admit is the one admission step of gridbw: decide a request at
// one instant against one store. The paper fixes when a request is decided
// — σ(r) = ts(r) for a request taken on arrival (Algorithm 2), the tick for
// one taken in a decision interval (Algorithm 3) — so admission is never a
// search here: the policy picks the rate for that instant, the grant
// follows from it, and the store either books the grant or says why not.
// The daemon, its cross-shard holds, the planner and the simulator's
// heuristics differ only in the store they pass and in how they word a
// refusal to their caller.
package admit

import (
	"errors"
	"fmt"

	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/units"
)

// Booker is a capacity store: it books grant g for request r whole, or
// changes nothing and says why. *alloc.Counters (instantaneous occupancy),
// *alloc.PairTx (both time profiles of a route, locked) and *alloc.PointTx
// (one profile, locked) are the three in the tree.
type Booker interface {
	Reserve(r request.Request, g request.Grant) error
}

// Cause says which step turned a request down.
type Cause int

const (
	Admitted    Cause = iota
	Malformed         // a quantity that is not a positive finite number: the caller's bug
	EmptyWindow       // the deadline is not after the start
	Infeasible        // MaxRate cannot move the volume inside the window
	Policy            // the policy has no admissible rate at that instant
	Grant             // the rate does not make a grant inside the request's bounds
	Capacity          // the store has no room for the grant
)

func (c Cause) String() string {
	return [...]string{"admitted", "malformed", "empty window", "infeasible", "policy", "grant", "capacity"}[c]
}

// Refusal is why Check or At turned a request down; the zero Refusal
// means they did not. Err is the error of the step that said no — the
// booker's own for Capacity, so a *alloc.CapacityError stays reachable
// through errors.As. It travels by value: the daemon refuses a third of a
// saturated batch and must not allocate to do so.
type Refusal struct {
	Cause Cause
	Err   error
}

// String is an At refusal as the simulators print it: "capacity: …".
func (f Refusal) String() string { return f.Cause.String() + ": " + f.Err.Error() }

// Check is the part of the decision that needs no store. Malformed is for
// the caller that built r (non-finite or non-positive quantities never
// become a decision); EmptyWindow and Infeasible are decisions, and their
// Err texts are the reasons the daemon answers with.
func Check(r request.Request) Refusal {
	switch {
	case !r.Finite():
		return Refusal{Malformed, errors.New("non-finite volume, rate or time")}
	case r.Volume <= 0:
		return Refusal{Malformed, fmt.Errorf("non-positive volume %v", r.Volume)}
	case r.MaxRate <= 0:
		return Refusal{Malformed, fmt.Errorf("non-positive max rate %v", r.MaxRate)}
	case r.Finish <= r.Start:
		return Refusal{EmptyWindow, fmt.Errorf("empty window: deadline %v not after start %v", r.Finish, r.Start)}
	}
	if need := r.MinRate(); need > r.MaxRate*(1+units.Eps) {
		return Refusal{Infeasible, fmt.Errorf("infeasible: needs %v to move %v in window but MaxRate is %v", need, r.Volume, r.MaxRate)}
	}
	return Refusal{}
}

// At decides r at instant sigma: the policy's rate for a start at sigma,
// the grant that rate makes, one Reserve. The zero Refusal means the grant
// is booked.
func At(b Booker, pol policy.Policy, r request.Request, sigma units.Time) (request.Grant, Refusal) {
	bw, err := pol.Assign(r, sigma)
	if err != nil {
		return request.Grant{}, Refusal{Policy, err}
	}
	g, err := request.NewGrant(r, sigma, bw)
	if err != nil {
		return request.Grant{}, Refusal{Grant, err}
	}
	if err := b.Reserve(r, g); err != nil {
		return request.Grant{}, Refusal{Capacity, err}
	}
	return g, Refusal{}
}
