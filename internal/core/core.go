// Package core is the public facade of the gridbw library: the paper's
// bandwidth-sharing service in a form a grid middleware would embed.
//
// Two usage styles are supported:
//
//   - On-line service (System): build the overlay platform once, then
//     submit transfer requests as they arrive; each submission is decided
//     immediately against the live occupancy, exactly like the §5 GREEDY
//     admission (the WINDOW batching and the §5.4 control-plane timing
//     live in internal/sched/flexible and internal/overlay and are reached
//     through the batch API).
//
//   - Batch scheduling: hand a complete request set to any heuristic by
//     name ("fcfs", "cumulated-slots", "minbw-slots", "minvol-slots",
//     "greedy:<policy>", "window:<step>:<policy>") and get the full
//     decision record back.
//
// Policies are named "minbw", "minbw-strict" or "f=<x>" (e.g. "f=0.8").
package core

import (
	"fmt"
	"strconv"
	"strings"

	"gridbw/internal/admit"
	"gridbw/internal/alloc"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/sched"
	"gridbw/internal/sched/flexible"
	"gridbw/internal/sched/rigid"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// Config describes the platform for a System.
type Config struct {
	// Ingress and Egress list the access-point capacities.
	Ingress, Egress []units.Bandwidth
	// Policy names the bandwidth-assignment policy for accepted
	// transfers; defaults to "minbw".
	Policy string
}

// Transfer is an on-line transfer request as a middleware client sees it.
type Transfer struct {
	// From and To are ingress and egress point indices.
	From, To int
	// Volume is the data to move.
	Volume units.Volume
	// Deadline is the absolute instant by which the transfer must finish.
	Deadline units.Time
	// MaxRate is the host transmission cap.
	MaxRate units.Bandwidth
}

// Decision is the service's answer to a Transfer.
type Decision struct {
	Accepted bool
	// Rate, Start and Finish describe the granted reservation.
	Rate   units.Bandwidth
	Start  units.Time
	Finish units.Time
	// Reason explains a rejection.
	Reason string
}

// System is the on-line bandwidth-sharing service.
type System struct {
	net      *topology.Network
	pol      policy.Policy
	counters *alloc.Counters
	now      units.Time
	nextID   request.ID

	submitted, accepted int
}

// NewSystem validates the configuration and builds a service with the
// clock at 0.
func NewSystem(cfg Config) (*System, error) {
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
	return &System{net: net, pol: pol, counters: alloc.NewCounters(net)}, nil
}

// Now reports the service clock.
func (s *System) Now() units.Time { return s.now }

// Network reports the platform.
func (s *System) Network() *topology.Network { return s.net }

// AdvanceTo moves the clock forward, releasing finished reservations on
// the way. Moving backwards is an error.
func (s *System) AdvanceTo(t units.Time) error {
	if t < s.now {
		return fmt.Errorf("core: clock cannot move from %v back to %v", s.now, t)
	}
	s.now = t
	s.counters.AdvanceTo(t)
	return nil
}

// Submit decides a transfer at the current clock. An accepted transfer
// reserves bandwidth at both endpoints until its computed finish time.
func (s *System) Submit(tr Transfer) (Decision, error) {
	if tr.From < 0 || tr.From >= s.net.NumIngress() {
		return Decision{}, fmt.Errorf("core: ingress %d out of range [0,%d)", tr.From, s.net.NumIngress())
	}
	if tr.To < 0 || tr.To >= s.net.NumEgress() {
		return Decision{}, fmt.Errorf("core: egress %d out of range [0,%d)", tr.To, s.net.NumEgress())
	}
	r := request.Request{
		ID:      s.nextID,
		Ingress: topology.PointID(tr.From),
		Egress:  topology.PointID(tr.To),
		Start:   s.now,
		Finish:  tr.Deadline,
		Volume:  tr.Volume,
		MaxRate: tr.MaxRate,
	}
	if err := r.Validate(); err != nil {
		return Decision{}, fmt.Errorf("core: %w", err)
	}
	s.nextID++
	s.submitted++

	g, no := admit.At(s.counters, s.pol, r, s.now)
	if no.Cause != admit.Admitted {
		return Decision{Reason: no.String()}, nil
	}
	s.accepted++
	return Decision{Accepted: true, Rate: g.Bandwidth, Start: g.Sigma, Finish: g.Tau}, nil
}

// Stats reports lifetime counters: submissions, acceptances and the
// current accept rate.
func (s *System) Stats() (submitted, accepted int, rate float64) {
	if s.submitted > 0 {
		rate = float64(s.accepted) / float64(s.submitted)
	}
	return s.submitted, s.accepted, rate
}

// UtilizationIn and UtilizationOut report instantaneous point loads.
func (s *System) UtilizationIn(i int) float64 {
	return s.counters.UtilizationIn(topology.PointID(i))
}

// UtilizationOut reports the instantaneous load of egress point e.
func (s *System) UtilizationOut(e int) float64 {
	return s.counters.UtilizationOut(topology.PointID(e))
}

// ParsePolicy resolves a policy name: "minbw", "minbw-strict", or "f=<x>"
// with x in [0,1].
func ParsePolicy(name string) (policy.Policy, error) {
	switch {
	case name == "minbw":
		return policy.MinRate(), nil
	case name == "minbw-strict":
		return policy.StrictRequestedMinRate(), nil
	case strings.HasPrefix(name, "f="):
		f, err := strconv.ParseFloat(strings.TrimPrefix(name, "f="), 64)
		if err != nil || f < 0 || f > 1 {
			return nil, fmt.Errorf("core: bad tuning factor in policy %q", name)
		}
		return policy.FractionMaxRate(f), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want minbw, minbw-strict, or f=<x>)", name)
	}
}

// NewScheduler resolves a batch scheduler spec:
//
//	"fcfs" | "cumulated-slots" | "minbw-slots" | "minvol-slots"   (rigid, §4)
//	"greedy:<policy>"                                             (flexible, §5.1)
//	"window:<step-seconds>:<policy>"                              (flexible, §5.2)
func NewScheduler(spec string) (sched.Scheduler, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "fcfs":
		return rigid.FCFS{}, nil
	case "cumulated-slots":
		return rigid.CumulatedSlots(), nil
	case "minbw-slots":
		return rigid.MinBWSlots(), nil
	case "minvol-slots":
		return rigid.MinVolSlots(), nil
	case "greedy":
		if len(parts) != 2 {
			return nil, fmt.Errorf("core: greedy spec needs a policy, e.g. %q", "greedy:minbw")
		}
		p, err := ParsePolicy(parts[1])
		if err != nil {
			return nil, err
		}
		return flexible.Greedy{Policy: p}, nil
	case "window", "window-retry":
		if len(parts) != 3 {
			return nil, fmt.Errorf("core: %s spec is %q", parts[0], parts[0]+":<step>:<policy>")
		}
		step, err := units.ParseTime(parts[1])
		if err != nil || step <= 0 {
			return nil, fmt.Errorf("core: bad window step %q", parts[1])
		}
		p, err := ParsePolicy(parts[2])
		if err != nil {
			return nil, err
		}
		if parts[0] == "window-retry" {
			return flexible.WindowRetry{Policy: p, Step: step}, nil
		}
		return flexible.Window{Policy: p, Step: step}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler %q", spec)
	}
}

// SchedulerSpecs lists example specs for help text.
func SchedulerSpecs() []string {
	return []string{
		"fcfs", "cumulated-slots", "minbw-slots", "minvol-slots",
		"greedy:minbw", "greedy:f=0.8", "window:400:f=1", "window:100:minbw",
		"window-retry:400:f=1",
	}
}
