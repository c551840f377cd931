// Package cluster is the control plane of a gridbwd replication group, in
// one place and importing nothing of the daemon: the wire types and the one
// HTTP caller of each control endpoint (proto.go), the status sweep of a
// member list and its pickers (survey.go), the election — the grant and
// epoch-install rules as pure functions, and the vote round (election.go) —
// and the watchdog that notices a dead primary and promotes the standby
// without a human in the loop. internal/server imports it and keeps what is
// its own: state under its lock, vote and epoch persistence, the pull loop.
//
// The election sits with the candidate: a daemon that has peers wins a
// majority vote round before it installs an epoch, whoever asked it to
// promote. So the watchdog's decision logic is a small deterministic state
// machine with no election in it,
//
//	follower → suspect → promoting → primary
//
// kept free of clocks and sockets so every transition is unit-testable:
// the Machine consumes observations (probe hit/miss, standby lag, promote
// outcome) and the Watchdog around it supplies them from real HTTP probes
// on a jittered timer. Promotion is deliberately conservative — it takes K
// consecutive probe misses to even suspect the primary, and a suspect
// primary is only deposed once the standby's replication lag is within the
// configured bound (promoting a standby that is far behind the frontier
// would discard acked decisions). A promote the standby's group denies is
// a failed promote: the watchdog falls back to suspect and re-runs the
// ladder next tick, so one that never reaches a majority holds forever
// rather than promoting blind.
//
// Minority split brain is prevented by the vote round; a majority-side
// promotion can still depose a primary that is alive but partitioned
// away. The fencing epoch makes that harmless — the promoted standby
// refuses every batch from the deposed primary's older epoch, so the
// deposed primary can keep answering reads but can never write into the
// new lineage.
package cluster

import "fmt"

// State is the watchdog's position in the failover ladder.
type State int

const (
	// StateFollower: the primary answers probes; nothing to do.
	StateFollower State = iota
	// StateSuspect: K consecutive probes missed; the primary is presumed
	// dead pending the standby lag check.
	StateSuspect
	// StatePromoting: the lag check passed; a promote call — the standby's
	// vote round included — is in flight.
	StatePromoting
	// StatePrimary: the standby was promoted (or found already promoted).
	// Terminal — a watchdog's lifetime covers at most one failover.
	StatePrimary
)

func (s State) String() string {
	switch s {
	case StateFollower:
		return "follower"
	case StateSuspect:
		return "suspect"
	case StatePromoting:
		return "promoting"
	case StatePrimary:
		return "primary"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Input is one observation fed to the machine.
type Input int

const (
	// ProbeOK: the primary answered its health probe.
	ProbeOK Input = iota
	// ProbeMiss: the probe failed (transport error or unhealthy answer).
	ProbeMiss
	// LagOK: the standby's replication lag is within the promotion bound.
	LagOK
	// LagTooFar: the standby is too far behind the frontier to promote.
	LagTooFar
	// PromoteOK: the promote call succeeded.
	PromoteOK
	// PromoteFail: the promote call failed — an error, or a vote round
	// short of a majority; re-evaluate from suspect.
	PromoteFail
	// StandbyIsPrimary: the standby reports it is already the primary —
	// someone else (an operator, another watchdog) won the race.
	StandbyIsPrimary
)

func (in Input) String() string {
	switch in {
	case ProbeOK:
		return "probe-ok"
	case ProbeMiss:
		return "probe-miss"
	case LagOK:
		return "lag-ok"
	case LagTooFar:
		return "lag-too-far"
	case PromoteOK:
		return "promote-ok"
	case PromoteFail:
		return "promote-fail"
	case StandbyIsPrimary:
		return "standby-is-primary"
	}
	return fmt.Sprintf("Input(%d)", int(in))
}

// Machine is the deterministic failover state machine. It holds no clock
// and does no I/O; callers feed it observations and read the state. Not
// safe for concurrent use — the Watchdog serializes access.
type Machine struct {
	k           int // consecutive misses required to suspect
	state       State
	misses      int
	transitions uint64
}

// NewMachine returns a machine in StateFollower requiring k consecutive
// probe misses before suspecting the primary; k < 1 is clamped to 1.
func NewMachine(k int) *Machine {
	if k < 1 {
		k = 1
	}
	return &Machine{k: k}
}

// State reports the current state.
func (m *Machine) State() State { return m.state }

// Misses reports the current consecutive-miss count.
func (m *Machine) Misses() int { return m.misses }

// Transitions reports how many edges (state changes) were taken.
func (m *Machine) Transitions() uint64 { return m.transitions }

// Step consumes one observation and returns the resulting state.
// Observations that make no sense in the current state (a lag verdict
// while the primary still answers, anything at all once primary) are
// ignored, so a caller racing a stale observation cannot corrupt the
// ladder.
func (m *Machine) Step(in Input) State {
	next := m.state
	switch m.state {
	case StateFollower:
		switch in {
		case ProbeOK:
			m.misses = 0
		case ProbeMiss:
			if m.misses++; m.misses >= m.k {
				next = StateSuspect
			}
		case StandbyIsPrimary:
			next = StatePrimary
		}
	case StateSuspect:
		switch in {
		case ProbeOK:
			// The primary is back: a transient blip, not a death.
			m.misses = 0
			next = StateFollower
		case ProbeMiss:
			m.misses++
		case LagOK:
			next = StatePromoting
		case LagTooFar:
			// Hold: the standby must not be promoted while it is missing
			// acked history. Stay suspect and re-check next tick.
		case StandbyIsPrimary:
			next = StatePrimary
		}
	case StatePromoting:
		switch in {
		case PromoteOK, StandbyIsPrimary:
			next = StatePrimary
		case PromoteFail:
			// No majority, or the call failed: re-run the suspect checks
			// next tick rather than hammering promote.
			next = StateSuspect
		}
	case StatePrimary:
		// Terminal.
	}
	if next != m.state {
		m.state = next
		m.transitions++
	}
	return m.state
}
