// Package exact provides optimal reference solvers for small instances of
// the paper's scheduling problems.
//
// The paper proves MAX-REQUESTS NP-complete (Theorem 1) and therefore
// only evaluates heuristics. For verification we still want ground truth
// on small instances: a branch-and-bound solver for rigid request sets
// (used to measure heuristic optimality gaps, Table T4 of DESIGN.md), a
// backtracking solver for the uniform unit-request instances produced by
// the Theorem-1 reduction (Table T2), and the polynomial EDF greedy that
// is optimal on a single ingress-egress pair — the special case the paper
// singles out.
package exact

import (
	"fmt"
	"math"
	"sort"

	"gridbw/internal/alloc"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// MaxRigid finds the maximum number of acceptable requests in a rigid set
// via branch and bound, together with one optimal accepted ID set. The
// search explores accept/reject decisions in request order against a full
// capacity ledger; nodeLimit bounds the explored decision nodes (0 means
// no limit). It returns an error when the limit is exhausted before the
// search completes, so callers never mistake a truncated bound for an
// optimum.
func MaxRigid(net *topology.Network, reqs *request.Set, nodeLimit int) (int, []request.ID, error) {
	all := reqs.All()
	for _, r := range all {
		if !r.Rigid() {
			return 0, nil, fmt.Errorf("exact: request %d is flexible; MaxRigid handles rigid sets only", r.ID)
		}
	}
	// Order by start time: decisions then conflict locally, which makes
	// the capacity-based pruning bite sooner.
	sort.Slice(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].ID < all[j].ID
	})

	ledger := alloc.NewSharded(net)
	best := -1
	var bestSet []request.ID
	var current []request.ID
	nodes := 0

	var dfs func(idx, accepted int) error
	dfs = func(idx, accepted int) error {
		nodes++
		if nodeLimit > 0 && nodes > nodeLimit {
			return fmt.Errorf("exact: node limit %d exhausted", nodeLimit)
		}
		remaining := len(all) - idx
		if accepted+remaining <= best {
			return nil // cannot beat the incumbent
		}
		if idx == len(all) {
			if accepted > best {
				best = accepted
				bestSet = append(bestSet[:0], current...)
			}
			return nil
		}
		r := all[idx]
		// Branch 1: accept, if feasible. The frame holds the grant it
		// booked and gives it back whole on the way out.
		if g, err := request.NewGrant(r, r.Start, r.MinRate()); err == nil && ledger.Reserve(r, g) == nil {
			current = append(current, r.ID)
			if err := dfs(idx+1, accepted+1); err != nil {
				return err
			}
			current = current[:len(current)-1]
			ledger.Revoke(r, g, units.Time(math.Inf(-1)))
		}
		// Branch 2: reject.
		return dfs(idx+1, accepted)
	}
	if err := dfs(0, 0); err != nil {
		return 0, nil, err
	}
	sort.Slice(bestSet, func(i, j int) bool { return bestSet[i] < bestSet[j] })
	return best, bestSet, nil
}

// UnitRequest is a uniform request of the MAX-REQUESTS-DEC decision
// problem: unit bandwidth, unit duration, and a window of integer time
// steps [Release, Deadline) in which its single step may be placed.
type UnitRequest struct {
	Ingress, Egress int
	// Release is the first admissible time step, Deadline the first
	// inadmissible one; the request occupies exactly one step t with
	// Release <= t < Deadline.
	Release, Deadline int
}

// Window reports the number of admissible steps.
func (u UnitRequest) Window() int { return u.Deadline - u.Release }

// UnitInstance is a problem-platform pair (R, I, E) with uniform requests.
type UnitInstance struct {
	// CapIn and CapOut are integer point capacities (units of bandwidth 1).
	CapIn, CapOut []int
	Requests      []UnitRequest
	// Steps is the number of time steps; windows must lie in [0, Steps).
	Steps int
}

// Validate checks instance consistency.
func (inst UnitInstance) Validate() error {
	if len(inst.CapIn) == 0 || len(inst.CapOut) == 0 {
		return fmt.Errorf("exact: empty point set")
	}
	if inst.Steps <= 0 {
		return fmt.Errorf("exact: non-positive step count %d", inst.Steps)
	}
	for _, c := range append(append([]int{}, inst.CapIn...), inst.CapOut...) {
		if c < 0 {
			return fmt.Errorf("exact: negative capacity %d", c)
		}
	}
	for i, r := range inst.Requests {
		switch {
		case r.Ingress < 0 || r.Ingress >= len(inst.CapIn):
			return fmt.Errorf("exact: request %d ingress %d out of range", i, r.Ingress)
		case r.Egress < 0 || r.Egress >= len(inst.CapOut):
			return fmt.Errorf("exact: request %d egress %d out of range", i, r.Egress)
		case r.Release < 0 || r.Deadline > inst.Steps || r.Window() <= 0:
			return fmt.Errorf("exact: request %d window [%d,%d) invalid", i, r.Release, r.Deadline)
		}
	}
	return nil
}

// UnitAssignment maps accepted request indices to their assigned step.
type UnitAssignment map[int]int

// MaxUnit solves the uniform instance exactly by backtracking: it returns
// the maximum number of acceptable requests and one optimal assignment.
// nodeLimit bounds explored nodes (0 = unlimited); exceeding it returns an
// error rather than a truncated answer.
func MaxUnit(inst UnitInstance, nodeLimit int) (int, UnitAssignment, error) {
	if err := inst.Validate(); err != nil {
		return 0, nil, err
	}
	n := len(inst.Requests)
	// Tightest-window-first ordering: rigid requests decided before
	// flexible ones prunes dramatically (the Theorem-1 instances have
	// window-1 regular requests and window-n special ones).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := inst.Requests[order[a]].Window(), inst.Requests[order[b]].Window()
		if wa != wb {
			return wa < wb
		}
		return order[a] < order[b]
	})

	// usedIn[t][i] and usedOut[t][e] track per-step occupancy.
	usedIn := make([][]int, inst.Steps)
	usedOut := make([][]int, inst.Steps)
	for t := range usedIn {
		usedIn[t] = make([]int, len(inst.CapIn))
		usedOut[t] = make([]int, len(inst.CapOut))
	}

	best := -1
	bestAssign := UnitAssignment{}
	current := UnitAssignment{}
	nodes := 0

	var dfs func(pos, accepted int) error
	dfs = func(pos, accepted int) error {
		nodes++
		if nodeLimit > 0 && nodes > nodeLimit {
			return fmt.Errorf("exact: node limit %d exhausted", nodeLimit)
		}
		if accepted+(n-pos) <= best {
			return nil
		}
		if pos == n {
			if accepted > best {
				best = accepted
				bestAssign = UnitAssignment{}
				for k, v := range current {
					bestAssign[k] = v
				}
			}
			return nil
		}
		idx := order[pos]
		r := inst.Requests[idx]
		for t := r.Release; t < r.Deadline; t++ {
			if usedIn[t][r.Ingress] < inst.CapIn[r.Ingress] &&
				usedOut[t][r.Egress] < inst.CapOut[r.Egress] {
				usedIn[t][r.Ingress]++
				usedOut[t][r.Egress]++
				current[idx] = t
				if err := dfs(pos+1, accepted+1); err != nil {
					return err
				}
				delete(current, idx)
				usedIn[t][r.Ingress]--
				usedOut[t][r.Egress]--
			}
		}
		return dfs(pos+1, accepted)
	}
	if err := dfs(0, 0); err != nil {
		return 0, nil, err
	}
	return best, bestAssign, nil
}

// VerifyUnit checks that an assignment is feasible for the instance and
// reports the number of accepted requests.
func VerifyUnit(inst UnitInstance, a UnitAssignment) (int, error) {
	if err := inst.Validate(); err != nil {
		return 0, err
	}
	usedIn := make([][]int, inst.Steps)
	usedOut := make([][]int, inst.Steps)
	for t := range usedIn {
		usedIn[t] = make([]int, len(inst.CapIn))
		usedOut[t] = make([]int, len(inst.CapOut))
	}
	for idx, t := range a {
		if idx < 0 || idx >= len(inst.Requests) {
			return 0, fmt.Errorf("exact: assignment references request %d", idx)
		}
		r := inst.Requests[idx]
		if t < r.Release || t >= r.Deadline {
			return 0, fmt.Errorf("exact: request %d assigned step %d outside [%d,%d)", idx, t, r.Release, r.Deadline)
		}
		usedIn[t][r.Ingress]++
		usedOut[t][r.Egress]++
	}
	for t := 0; t < inst.Steps; t++ {
		for i, u := range usedIn[t] {
			if u > inst.CapIn[i] {
				return 0, fmt.Errorf("exact: ingress %d over capacity at step %d (%d > %d)", i, t, u, inst.CapIn[i])
			}
		}
		for e, u := range usedOut[t] {
			if u > inst.CapOut[e] {
				return 0, fmt.Errorf("exact: egress %d over capacity at step %d (%d > %d)", e, t, u, inst.CapOut[e])
			}
		}
	}
	return len(a), nil
}

// SinglePairEDF is the polynomial special case noted after Theorem 1: on a
// platform with a single ingress-egress pair, greedy is optimal. For unit
// requests this is earliest-deadline-first admission step by step: at each
// time step, run the min(capIn, capOut) available slots through the
// released, not-yet-expired requests in deadline order. It returns the
// accepted count and assignment.
func SinglePairEDF(inst UnitInstance) (int, UnitAssignment, error) {
	if err := inst.Validate(); err != nil {
		return 0, nil, err
	}
	if len(inst.CapIn) != 1 || len(inst.CapOut) != 1 {
		return 0, nil, fmt.Errorf("exact: SinglePairEDF needs exactly one ingress and one egress (got %dx%d)",
			len(inst.CapIn), len(inst.CapOut))
	}
	capacity := inst.CapIn[0]
	if inst.CapOut[0] < capacity {
		capacity = inst.CapOut[0]
	}
	assign := UnitAssignment{}
	type pending struct{ idx, deadline int }
	for t := 0; t < inst.Steps; t++ {
		var avail []pending
		for idx, r := range inst.Requests {
			if _, done := assign[idx]; done {
				continue
			}
			if r.Release <= t && t < r.Deadline {
				avail = append(avail, pending{idx: idx, deadline: r.Deadline})
			}
		}
		sort.Slice(avail, func(i, j int) bool {
			if avail[i].deadline != avail[j].deadline {
				return avail[i].deadline < avail[j].deadline
			}
			return avail[i].idx < avail[j].idx
		})
		for k := 0; k < len(avail) && k < capacity; k++ {
			assign[avail[k].idx] = t
		}
	}
	return len(assign), assign, nil
}
