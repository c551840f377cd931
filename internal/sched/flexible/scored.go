package flexible

import (
	"fmt"

	"gridbw/internal/alloc"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/sched"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// ScoreFunc ranks a candidate within a decision interval; lower scores are
// admitted first. It sees the request, its assigned bandwidth, and the
// live occupancy so it can reproduce the paper's utilization cost or use
// request-intrinsic urgency instead.
type ScoreFunc func(net *topology.Network, counters *alloc.Counters, r request.Request, bw units.Bandwidth) float64

// WindowScored is the ablation family around Algorithm 3's candidate
// ordering (DESIGN.md: the stop-on-first-miss rule and the min-cost order
// are design choices worth isolating). It differs from Window in two
// deliberate ways:
//
//   - the admission order comes from a pluggable ScoreFunc;
//   - a candidate that does not fit is *skipped* (the rest of the batch is
//     still considered) instead of aborting the whole interval, isolating
//     the effect of the paper's early-stop rule.
//
// Use the constructors below for the named variants.
type WindowScored struct {
	// Policy picks the bandwidth for each admitted request; required.
	Policy policy.Policy
	// Step is t_step, the decision interval length; must be positive.
	Step units.Time
	// Score orders the candidates; required.
	Score ScoreFunc
	// Label names the variant in reports.
	Label string
}

// CostScore is the paper's §5.2 cost as a ScoreFunc.
func CostScore() ScoreFunc { return cost }

// EDFScore orders by urgency: the latest instant the transfer could still
// start and meet its deadline at full host rate. Earlier = more urgent.
func EDFScore() ScoreFunc {
	return func(_ *topology.Network, _ *alloc.Counters, r request.Request, _ units.Bandwidth) float64 {
		return float64(r.Finish) - float64(r.Volume.Over(r.MaxRate))
	}
}

// SmallestDemandScore orders by the bandwidth about to be reserved — the
// on-line analogue of MINBW-SLOTS.
func SmallestDemandScore() ScoreFunc {
	return func(_ *topology.Network, _ *alloc.Counters, _ request.Request, bw units.Bandwidth) float64 {
		return float64(bw)
	}
}

// WindowCostSkip is Algorithm 3's ordering with the early-stop rule
// removed: infeasible candidates are skipped, feasible later ones still
// admitted.
func WindowCostSkip(p policy.Policy, step units.Time) WindowScored {
	return WindowScored{Policy: p, Step: step, Score: CostScore(), Label: "window-cost-skip"}
}

// WindowEDF admits the most deadline-urgent candidates first.
func WindowEDF(p policy.Policy, step units.Time) WindowScored {
	return WindowScored{Policy: p, Step: step, Score: EDFScore(), Label: "window-edf"}
}

// WindowMinDemand admits the thinnest reservations first.
func WindowMinDemand(p policy.Policy, step units.Time) WindowScored {
	return WindowScored{Policy: p, Step: step, Score: SmallestDemandScore(), Label: "window-minbw"}
}

// Name implements sched.Scheduler.
func (w WindowScored) Name() string {
	label := w.Label
	if label == "" {
		label = "window-scored"
	}
	return fmt.Sprintf("%s(%v)/%s", label, w.Step, w.Policy.Name())
}

// Schedule implements sched.Scheduler.
func (w WindowScored) Schedule(net *topology.Network, reqs *request.Set) (*sched.Outcome, error) {
	return decideAtTicks(net, reqs, "scored window", w.Name, w.Policy, w.Step, w.Score, skipCandidate)
}
