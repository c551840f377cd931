// Package flexible implements the §5 on-line heuristics for short-lived
// flexible requests: GREEDY (Algorithm 2), which decides each request the
// moment it arrives, and WINDOW (Algorithm 3), which batches the requests
// arriving within each t_step interval and admits them in min-cost order.
//
// Both heuristics track only the instantaneous occupancy ali/ale of each
// point (alloc.Counters): because an admitted transfer holds a constant
// rate until it completes and occupancy between admissions only decreases,
// an instantaneous feasibility check at admission time is sufficient (see
// DESIGN.md §5.1).
//
// The bandwidth granted to an accepted request comes from a policy.Policy
// — MinRate or the f·MaxRate family — evaluated at the actual start time,
// so a WINDOW admission late in the request's window automatically raises
// the floor to keep the deadline reachable (DESIGN.md §5.2).
package flexible

import (
	"fmt"
	"sort"

	"gridbw/internal/admit"
	"gridbw/internal/alloc"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/sched"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// Greedy is Algorithm 2: first-come first-serve admission at arrival time.
type Greedy struct {
	// Policy picks the bandwidth for each admitted request; required.
	Policy policy.Policy
}

// Name implements sched.Scheduler.
func (g Greedy) Name() string { return "greedy/" + g.Policy.Name() }

// Schedule implements sched.Scheduler.
func (g Greedy) Schedule(net *topology.Network, reqs *request.Set) (*sched.Outcome, error) {
	if g.Policy == nil {
		return nil, fmt.Errorf("flexible: greedy heuristic needs a policy")
	}
	out := sched.NewOutcome(g.Name(), net, reqs)
	order := reqs.All()
	// Arrival order; the paper breaks arrival ties by smaller MinRate.
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

	counters := alloc.NewCounters(net)
	for _, r := range order {
		// Algorithm 2 reclaims at t = τ before admitting arrivals at the
		// same t.
		counters.AdvanceTo(r.Start)
		if grant, no := admit.At(counters, g.Policy, r, r.Start); no.Cause != admit.Admitted {
			out.Reject(r.ID, no.String())
		} else {
			out.Accept(grant)
		}
	}
	return out, nil
}

// Window is Algorithm 3: interval-based admission every Step seconds.
type Window struct {
	// Policy picks the bandwidth for each admitted request; required.
	Policy policy.Policy
	// Step is t_step, the decision interval length; must be positive.
	Step units.Time
}

// Name implements sched.Scheduler.
func (w Window) Name() string {
	return fmt.Sprintf("window(%v)/%s", w.Step, w.Policy.Name())
}

// Schedule implements sched.Scheduler.
func (w Window) Schedule(net *topology.Network, reqs *request.Set) (*sched.Outcome, error) {
	return decideAtTicks(net, reqs, "window", w.Name, w.Policy, w.Step, cost, stopInterval)
}

// cost implements the §5.2 cost: the larger of the two point utilizations
// request r would reach if admitted at bandwidth bw.
func cost(net *topology.Network, counters *alloc.Counters, r request.Request, bw units.Bandwidth) float64 {
	bin, bout := net.Bin(r.Ingress), net.Bout(r.Egress)
	// A zero-capacity endpoint makes the request unroutable: infinite cost.
	if bin == 0 || bout == 0 {
		return 2 // anything > 1 is never admitted
	}
	ci := float64(counters.Ali(r.Ingress)+bw) / float64(bin)
	ce := float64(counters.Ale(r.Egress)+bw) / float64(bout)
	if ci > ce {
		return ci
	}
	return ce
}

// missRule is what a decision interval does when its best-scored candidate
// does not fit — the one thing, beside the score, that tells the interval
// heuristics apart.
type missRule int

const (
	// stopInterval is Algorithm 3: the cheapest candidate costs more than
	// 1, so it and everything still undecided is rejected.
	stopInterval missRule = iota
	// skipCandidate rejects that candidate alone and keeps deciding.
	skipCandidate
	// carryOver ends the interval and keeps the undecided for the next
	// tick, until their deadline is out of reach.
	carryOver
)

type candidate struct {
	r  request.Request
	bw units.Bandwidth
}

// decideAtTicks is the loop Window, WindowRetry and WindowScored share.
// kind names the heuristic in configuration errors; name is only called
// once the policy is known to be there.
func decideAtTicks(net *topology.Network, reqs *request.Set, kind string, name func() string,
	pol policy.Policy, step units.Time, score ScoreFunc, miss missRule) (*sched.Outcome, error) {
	if pol == nil {
		return nil, fmt.Errorf("flexible: %s heuristic needs a policy", kind)
	}
	if step <= 0 {
		return nil, fmt.Errorf("flexible: non-positive window step %v", step)
	}
	if score == nil {
		return nil, fmt.Errorf("flexible: %s heuristic needs a score function", kind)
	}
	out := sched.NewOutcome(name(), net, reqs)
	all := reqs.All()
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].ID < all[j].ID
	})

	counters := alloc.NewCounters(net)
	next := 0 // index into all of the first request not yet considered
	// pool holds the undecided; only carryOver leaves any in it between
	// ticks.
	var pool []candidate

	// Ticks run at the END of each interval: requests arriving in
	// [T−Step, T) are decided at T.
	for tick := step; next < len(all) || len(pool) > 0; tick += step {
		counters.AdvanceTo(tick)
		for ; next < len(all) && all[next].Start < tick; next++ {
			pool = append(pool, candidate{r: all[next]})
		}

		// This tick's rates. A carried request whose deadline is out of
		// reach even at full host rate is dropped with its own reason.
		cands := pool[:0]
		for _, c := range pool {
			if miss == carryOver && (tick >= c.r.Finish || c.r.EffectiveMinRate(tick) > c.r.MaxRate*(1+units.Eps)) {
				out.Reject(c.r.ID, fmt.Sprintf("deadline unreachable by tick %v", tick))
				continue
			}
			bw, err := pol.Assign(c.r, tick)
			if err != nil {
				out.Reject(c.r.ID, "policy: "+err.Error())
				continue
			}
			cands = append(cands, candidate{c.r, bw})
		}

		// Admit in best-score order, rescoring as occupancy grows.
		for len(cands) > 0 {
			best := 0
			bestScore := score(net, counters, cands[0].r, cands[0].bw)
			for i := 1; i < len(cands); i++ {
				s := score(net, counters, cands[i].r, cands[i].bw)
				if s < bestScore || (s == bestScore && cands[i].r.ID < cands[best].r.ID) {
					best, bestScore = i, s
				}
			}
			c := cands[best]
			if !counters.Fits(c.r.Ingress, c.r.Egress, c.bw) {
				switch miss {
				case stopInterval:
					for _, c := range cands {
						out.Reject(c.r.ID, fmt.Sprintf("cost %.3f > 1 at tick %v", cost(net, counters, c.r, c.bw), tick))
					}
					cands = cands[:0]
				case skipCandidate:
					out.Reject(c.r.ID, fmt.Sprintf("capacity at tick %v", tick))
					cands = append(cands[:best], cands[best+1:]...)
					continue
				}
				break
			}
			cands = append(cands[:best], cands[best+1:]...)
			grant, no := admit.At(counters, pol, c.r, tick)
			switch no.Cause {
			case admit.Admitted:
				out.Accept(grant)
			case admit.Capacity:
				return nil, fmt.Errorf("flexible: admission disagreed with fit check: %w", no.Err)
			default:
				out.Reject(c.r.ID, no.String())
			}
		}
		pool = cands
	}
	return out, nil
}
