package flexible

import (
	"fmt"

	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/sched"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// WindowRetry is the refined interval heuristic the paper's §7 leaves as
// future work: identical to Window, except that candidates that do not
// fit in their decision interval are *not* discarded — they stay in the
// candidate pool and are retried at later ticks, until even starting
// immediately at MaxRate could no longer meet their deadline. Because the
// paper's requests have flexible windows, much of the rejected demand is
// simply early; retrying converts transient congestion into queueing
// delay instead of loss. The ablation bench (BenchmarkAblationRetry)
// quantifies the accept-rate gain over the paper's Algorithm 3.
type WindowRetry struct {
	// Policy picks the bandwidth for each admitted request; required.
	Policy policy.Policy
	// Step is t_step, the decision interval length; must be positive.
	Step units.Time
}

// Name implements sched.Scheduler.
func (w WindowRetry) Name() string {
	return fmt.Sprintf("window-retry(%v)/%s", w.Step, w.Policy.Name())
}

// Schedule implements sched.Scheduler.
func (w WindowRetry) Schedule(net *topology.Network, reqs *request.Set) (*sched.Outcome, error) {
	return decideAtTicks(net, reqs, "window-retry", w.Name, w.Policy, w.Step, cost, carryOver)
}
