package metrics

// Watchdog accumulates lifetime counters for one failover watchdog — the
// probe traffic and the (rare) promotions it drove. Like Online it is a
// plain value: the watchdog holds its own lock and the fields marshal
// directly into status answers.
type Watchdog struct {
	// Probes counts health probes sent to the primary; Misses counts the
	// probes that failed (transport error or non-200 answer).
	Probes uint64 `json:"probes"`
	Misses uint64 `json:"misses"`
	// LagHolds counts promotion attempts deferred because the standby was
	// further behind the primary's frontier than the configured bound.
	LagHolds uint64 `json:"lag_holds,omitempty"`
	// PromoteAttempts counts promote calls issued; Promotions counts the
	// ones that succeeded. A watchdog promotes at most once per lifetime,
	// but a flaky standby, or one whose group keeps denying it a majority
	// (the standby counts those rounds, see Online.VoteRounds), can make
	// the attempt count larger.
	PromoteAttempts uint64 `json:"promote_attempts,omitempty"`
	Promotions      uint64 `json:"promotions,omitempty"`
	// Transitions counts state-machine edges actually taken (self-loops
	// excluded), so a flapping primary is visible even when the watchdog
	// never ends up promoting.
	Transitions uint64 `json:"transitions,omitempty"`
}

// RecordProbe counts one primary health probe and whether it missed.
func (w *Watchdog) RecordProbe(miss bool) {
	w.Probes++
	if miss {
		w.Misses++
	}
}

// RecordLagHold counts a promotion deferred by the replication-lag bound.
func (w *Watchdog) RecordLagHold() { w.LagHolds++ }

// RecordPromoteAttempt counts one promote call and whether it succeeded.
func (w *Watchdog) RecordPromoteAttempt(ok bool) {
	w.PromoteAttempts++
	if ok {
		w.Promotions++
	}
}

// RecordTransition counts one taken state-machine edge.
func (w *Watchdog) RecordTransition() { w.Transitions++ }
