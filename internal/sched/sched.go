// Package sched defines the scheduling framework shared by every
// heuristic in the paper: the Scheduler interface, per-request Decision
// records, the Outcome of a run, and an independent verifier that replays
// an outcome against a fresh capacity ledger to certify that the paper's
// constraint system (equation 1) holds.
//
// Concrete heuristics live in the sub-packages sched/rigid (§4) and
// sched/flexible (§5).
package sched

import (
	"fmt"
	"sort"

	"gridbw/internal/alloc"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// Decision records the fate of one request.
type Decision struct {
	Request  request.ID
	Accepted bool
	// Grant is meaningful only when Accepted.
	Grant request.Grant
	// Reason explains a rejection ("ingress saturated", "deadline
	// unreachable", …); empty for accepted requests.
	Reason string
}

// Outcome is the result of scheduling a request set on a network.
type Outcome struct {
	Scheduler string
	Network   *topology.Network
	Requests  *request.Set
	// decisions is indexed by request ID.
	decisions []Decision
}

// NewOutcome returns an outcome with every request initially undecided
// (rejected with reason "undecided"); heuristics overwrite each entry.
func NewOutcome(name string, net *topology.Network, reqs *request.Set) *Outcome {
	o := &Outcome{
		Scheduler: name,
		Network:   net,
		Requests:  reqs,
		decisions: make([]Decision, reqs.Len()),
	}
	for i := range o.decisions {
		o.decisions[i] = Decision{Request: request.ID(i), Reason: "undecided"}
	}
	return o
}

// Accept records an accepted request with its grant.
func (o *Outcome) Accept(g request.Grant) {
	o.decisions[int(g.Request)] = Decision{Request: g.Request, Accepted: true, Grant: g}
}

// Reject records a rejection with a reason.
func (o *Outcome) Reject(id request.ID, reason string) {
	o.decisions[int(id)] = Decision{Request: id, Reason: reason}
}

// Decision returns the record for request id.
func (o *Outcome) Decision(id request.ID) Decision {
	return o.decisions[int(id)]
}

// Decisions returns all records in request-ID order (a copy).
func (o *Outcome) Decisions() []Decision {
	cp := make([]Decision, len(o.decisions))
	copy(cp, o.decisions)
	return cp
}

// Accepted returns the IDs of accepted requests in increasing order.
func (o *Outcome) Accepted() []request.ID {
	var out []request.ID
	for _, d := range o.decisions {
		if d.Accepted {
			out = append(out, d.Request)
		}
	}
	return out
}

// AcceptedCount reports the number of accepted requests (Σ x_k).
func (o *Outcome) AcceptedCount() int {
	n := 0
	for _, d := range o.decisions {
		if d.Accepted {
			n++
		}
	}
	return n
}

// AcceptRate reports AcceptedCount / K, or 0 for an empty request set.
func (o *Outcome) AcceptRate() float64 {
	if len(o.decisions) == 0 {
		return 0
	}
	return float64(o.AcceptedCount()) / float64(len(o.decisions))
}

// Grants returns the grants of accepted requests in request-ID order.
func (o *Outcome) Grants() []request.Grant {
	var out []request.Grant
	for _, d := range o.decisions {
		if d.Accepted {
			out = append(out, d.Grant)
		}
	}
	return out
}

// Verify independently replays every grant into a fresh ledger and checks
// the full constraint system of §2.1: per-request rate bounds and window
// containment, and per-point capacity at every instant. A nil error
// certifies the outcome is feasible.
func (o *Outcome) Verify() error {
	ledger := alloc.NewSharded(o.Network)
	// Replay in a deterministic order independent of acceptance order.
	grants := o.Grants()
	sort.Slice(grants, func(i, j int) bool { return grants[i].Request < grants[j].Request })
	for _, g := range grants {
		r := o.Requests.Get(g.Request)
		// Note: bw >= vol/(tf−σ), the effective MinRate floor, is implied
		// by window containment plus the moved-volume check below.
		if g.Bandwidth > r.MaxRate*(1+units.Eps) {
			return fmt.Errorf("sched: request %d granted %v above MaxRate %v", r.ID, g.Bandwidth, r.MaxRate)
		}
		if g.Sigma < r.Start || g.Tau > r.Finish*(1+units.Eps)+units.Eps {
			return fmt.Errorf("sched: request %d window [%v,%v] outside requested [%v,%v]",
				r.ID, g.Sigma, g.Tau, r.Start, r.Finish)
		}
		moved := g.Bandwidth.For(g.Duration())
		if !units.ApproxEq(float64(moved), float64(r.Volume)) {
			return fmt.Errorf("sched: request %d moves %v, volume is %v", r.ID, moved, r.Volume)
		}
		if err := ledger.Reserve(r, g); err != nil {
			return fmt.Errorf("sched: outcome violates capacity: %w", err)
		}
	}
	return ledger.CheckInvariant()
}

// Scheduler is an algorithm that decides a complete request set.
// Off-line heuristics see the whole set at once; on-line heuristics are
// driven by arrival order internally but expose the same interface.
type Scheduler interface {
	// Name identifies the heuristic in reports, e.g. "cumulated-slots".
	Name() string
	// Schedule decides every request in reqs over net.
	Schedule(net *topology.Network, reqs *request.Set) (*Outcome, error)
}
