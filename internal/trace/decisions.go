package trace

// Decision-event kinds emitted by the online admission daemon.
const (
	EventAccept  = "accept"
	EventReject  = "reject"
	EventCancel  = "cancel"
	EventExpire  = "expire"
	EventRestore = "restore"
	EventPanic   = "panic"
	EventPromote = "promote"
)

// Hold-event kinds of the cross-shard two-phase protocol: a hold books
// capacity on ONE side of a route (this shard owns either the ingress or
// the egress point; the router drives the peer shard separately). Every
// transition is WAL-logged so holds survive failover and restart.
const (
	// EventHoldReserve: a tentative one-sided hold took [SigmaS, TauS] x
	// RateBps at the point; it rolls back at ExpireS unless confirmed. With
	// Reason set it records a refused RESERVE instead: it booked nothing and
	// leaves a tombstone that answers a late copy with that reason.
	EventHoldReserve = "hold_reserve"
	// EventHoldConfirm: the hold committed; capacity stays booked until
	// TauS.
	EventHoldConfirm = "hold_confirm"
	// EventHoldAbort: the router (or a cancel) rolled the hold back; any
	// booked capacity returned at At.
	EventHoldAbort = "hold_abort"
	// EventHoldExpire: the reserve TTL lapsed unconfirmed; the tentative
	// capacity returned at At.
	EventHoldExpire = "hold_expire"
	// EventHoldRelease: a confirmed hold reached TauS and its capacity
	// returned on schedule.
	EventHoldRelease = "hold_release"
)

// HoldSide values for Event.Side.
const (
	HoldSideIngress = "in"
	HoldSideEgress  = "eg"
)

// Event is one admission-control decision as it happened, in the same
// flat base-unit style as the workload/outcome envelopes. A stream of
// events is an audit log: replaying the accepts against a fresh ledger
// re-derives the daemon's occupancy at any instant.
type Event struct {
	// At is the service clock (seconds since daemon epoch) of the event.
	At      float64 `json:"t_s"`
	Kind    string  `json:"kind"`
	Request int     `json:"request"`
	Ingress int     `json:"ingress"`
	Egress  int     `json:"egress"`
	// RateBps, SigmaS and TauS describe the grant; zero for rejections.
	RateBps float64 `json:"rate_bps,omitempty"`
	SigmaS  float64 `json:"sigma_s,omitempty"`
	TauS    float64 `json:"tau_s,omitempty"`
	// VolumeB and MaxRateBps echo the submission so the WAL alone can
	// rebuild server state (recovery when the checkpoint is missing or
	// corrupt). Old logs omit them; replay then derives the volume from
	// the grant (rate·(tau−sigma) is exact for the daemon's grants).
	VolumeB    float64 `json:"volume_bytes,omitempty"`
	MaxRateBps float64 `json:"max_rate_bps,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	// Key is the idempotency key the submission carried (accept and reject
	// only), so every replay of the log answers a re-send of the key with
	// the decision recorded here instead of deciding it again.
	Key string `json:"key,omitempty"`
	// Hold and Side identify a cross-shard hold (EventHold* kinds only):
	// Hold is the router-generated key shared by both sides of the pair,
	// Side says which half of the route this shard booked (HoldSideIngress
	// or HoldSideEgress). The point index rides in Ingress or Egress
	// according to Side; the other index is -1.
	Hold string `json:"hold,omitempty"`
	Side string `json:"side,omitempty"`
	// ExpireS is the service-time deadline of an unconfirmed hold
	// (EventHoldReserve only): recovery re-arms the rollback timer here.
	ExpireS float64 `json:"expire_s,omitempty"`
}

// DecisionSink receives admission events as they are decided, in the order
// the WAL records them. The WAL is the one durable log; a sink is an
// in-process tap for tests and instruments, never read back at boot.
type DecisionSink interface {
	Append(Event) error
}
