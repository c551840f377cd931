// Package rigid implements the §4 heuristics for short-lived rigid
// requests: transfers whose assigned window is exactly the requested
// window, so bw(r) = MinRate(r) = MaxRate(r) and the scheduler's only
// freedom is accept/reject.
//
// Two families are provided:
//
//   - FCFS: requests are admitted in order of their starting times (ties
//     by smaller bandwidth) against the full time-profile ledger.
//   - The Algorithm-1 slot family (CUMULATED-SLOTS, MINBW-SLOTS,
//     MINVOL-SLOTS): the horizon is decomposed into elementary intervals
//     (Figure 3); each interval admits its active requests in
//     non-decreasing cost order, and a request that fails in any covering
//     interval is rolled back from previous intervals and discarded
//     permanently. The three variants differ only in the cost factor.
package rigid

import (
	"fmt"
	"sort"

	"gridbw/internal/alloc"
	"gridbw/internal/intervals"
	"gridbw/internal/request"
	"gridbw/internal/sched"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// validateRigid checks that every request in the set is rigid; the §4
// heuristics are only defined for MinRate = MaxRate.
func validateRigid(reqs *request.Set) error {
	for _, r := range reqs.All() {
		if !r.Rigid() {
			return fmt.Errorf("rigid: request %d is flexible (MinRate %v < MaxRate %v)",
				r.ID, r.MinRate(), r.MaxRate)
		}
	}
	return nil
}

// FCFS is the §4.1 heuristic.
type FCFS struct{}

// Name implements sched.Scheduler.
func (FCFS) Name() string { return "fcfs" }

// Schedule implements sched.Scheduler.
func (FCFS) Schedule(net *topology.Network, reqs *request.Set) (*sched.Outcome, error) {
	if err := validateRigid(reqs); err != nil {
		return nil, err
	}
	out := sched.NewOutcome(FCFS{}.Name(), net, reqs)
	order := reqs.All()
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if am, bm := a.MinRate(), b.MinRate(); am != bm {
			return am < bm
		}
		return a.ID < b.ID
	})
	ledger := alloc.NewSharded(net)
	for _, r := range order {
		g, err := request.NewGrant(r, r.Start, r.MinRate())
		if err != nil {
			out.Reject(r.ID, "grant construction: "+err.Error())
			continue
		}
		if err := ledger.Reserve(r, g); err != nil {
			out.Reject(r.ID, "capacity: "+err.Error())
			continue
		}
		out.Accept(g)
	}
	return out, nil
}

// CostFunc ranks a request within an elementary interval; lower cost is
// scheduled first.
type CostFunc func(net *topology.Network, r request.Request, iv intervals.Interval) float64

// Slots is the Algorithm-1 time-window decomposition heuristic with a
// pluggable cost factor.
type Slots struct {
	name string
	cost CostFunc
}

// NewSlots builds a slot heuristic from a name and cost function; the
// paper's three variants below are pre-packaged.
func NewSlots(name string, cost CostFunc) *Slots {
	if name == "" || cost == nil {
		panic("rigid: slot heuristic needs a name and a cost function")
	}
	return &Slots{name: name, cost: cost}
}

// CumulatedSlots ranks by bw(r) / (b_min · priority(r, interval)): among
// same-start requests shorter ones win, and requests that have already
// been granted more intervals get cheaper and are protected from late
// rejection (§4.2).
func CumulatedSlots() *Slots {
	return NewSlots("cumulated-slots", func(net *topology.Network, r request.Request, iv intervals.Interval) float64 {
		bmin := net.MinPairCapacity(r.Ingress, r.Egress)
		if bmin == 0 {
			// A zero-capacity endpoint can never carry the request; rank it
			// last so it is rejected by the capacity check, not by a NaN.
			return float64(r.MinRate()) * 1e18
		}
		return float64(r.MinRate()) / (float64(bmin) * intervals.Priority(r, iv))
	})
}

// MinBWSlots ranks by demanded bandwidth alone.
func MinBWSlots() *Slots {
	return NewSlots("minbw-slots", func(_ *topology.Network, r request.Request, _ intervals.Interval) float64 {
		return float64(r.MinRate())
	})
}

// MinVolSlots ranks by request volume alone.
func MinVolSlots() *Slots {
	return NewSlots("minvol-slots", func(_ *topology.Network, r request.Request, _ intervals.Interval) float64 {
		return float64(r.Volume)
	})
}

// Name implements sched.Scheduler.
func (s *Slots) Name() string { return s.name }

// Schedule implements sched.Scheduler.
func (s *Slots) Schedule(net *topology.Network, reqs *request.Set) (*sched.Outcome, error) {
	if err := validateRigid(reqs); err != nil {
		return nil, err
	}
	out := sched.NewOutcome(s.name, net, reqs)
	all := reqs.All()
	ivs := intervals.Decompose(all)

	// needed[id] counts covering intervals; got[id] counts intervals in
	// which the request was allocated; discarded marks permanent
	// rejection.
	needed := make([]int, reqs.Len())
	got := make([]int, reqs.Len())
	discarded := make([]bool, reqs.Len())
	for _, r := range all {
		needed[int(r.ID)] = len(intervals.Covering(ivs, r))
	}

	ali := make([]units.Bandwidth, net.NumIngress())
	ale := make([]units.Bandwidth, net.NumEgress())
	for _, iv := range ivs {
		for i := range ali {
			ali[i] = 0
		}
		for e := range ale {
			ale[e] = 0
		}
		active := intervals.Active(all, iv)
		// Drop already-discarded requests from contention.
		live := active[:0]
		for _, r := range active {
			if !discarded[int(r.ID)] {
				live = append(live, r)
			}
		}
		iv := iv
		sort.SliceStable(live, func(i, j int) bool {
			ci, cj := s.cost(net, live[i], iv), s.cost(net, live[j], iv)
			if ci != cj {
				return ci < cj
			}
			if mi, mj := live[i].MinRate(), live[j].MinRate(); mi != mj {
				return mi < mj
			}
			return live[i].ID < live[j].ID
		})
		for _, r := range live {
			bw := r.MinRate()
			if units.FitsWithin(ali[int(r.Ingress)], bw, net.Bin(r.Ingress)) &&
				units.FitsWithin(ale[int(r.Egress)], bw, net.Bout(r.Egress)) {
				ali[int(r.Ingress)] += bw
				ale[int(r.Egress)] += bw
				got[int(r.ID)]++
			} else {
				// Remove from all previous intervals and from contention.
				// Previous intervals have already been decided, so the
				// roll-back only needs to erase the request's claim; the
				// freed capacity is not re-offered (the paper does not
				// revisit past intervals either).
				discarded[int(r.ID)] = true
				got[int(r.ID)] = 0
				out.Reject(r.ID, fmt.Sprintf("capacity in interval [%v,%v)", iv.Start, iv.End))
			}
		}
	}

	for _, r := range all {
		if discarded[int(r.ID)] {
			continue
		}
		if got[int(r.ID)] == needed[int(r.ID)] && needed[int(r.ID)] > 0 {
			g, err := request.NewGrant(r, r.Start, r.MinRate())
			if err != nil {
				out.Reject(r.ID, "grant construction: "+err.Error())
				continue
			}
			out.Accept(g)
		} else {
			out.Reject(r.ID, "not allocated in all covering intervals")
		}
	}
	return out, nil
}
