package wire

import (
	"fmt"

	"gridbw/internal/units"
)

// The request and answer shapes of the request plane, as JSON spells them,
// and the control plane's JSON-only pages. Quantities accept both base-unit
// numbers (volume_bytes, max_rate_bps, deadline_s) and human-readable
// strings (volume "500GB", max_rate "1GB/s", deadline_in "1h" relative to
// the service clock), so the API is usable from curl without arithmetic.

// SubmitRequest is the POST /v1/requests body.
type SubmitRequest struct {
	From int `json:"from"`
	To   int `json:"to"`
	// VolumeBytes or Volume ("500GB") set the transfer size.
	VolumeBytes float64 `json:"volume_bytes,omitempty"`
	Volume      string  `json:"volume,omitempty"`
	// MaxRateBps or MaxRate ("1GB/s") set the host transmission cap.
	MaxRateBps float64 `json:"max_rate_bps,omitempty"`
	MaxRate    string  `json:"max_rate,omitempty"`
	// NotBeforeS/DeadlineS are absolute service time (seconds since the
	// daemon epoch); StartIn/DeadlineIn ("90s", "1h") are relative to now.
	NotBeforeS float64 `json:"not_before_s,omitempty"`
	StartIn    string  `json:"start_in,omitempty"`
	DeadlineS  float64 `json:"deadline_s,omitempty"`
	DeadlineIn string  `json:"deadline_in,omitempty"`
	// IdempotencyKey makes the submission retryable; the Idempotency-Key
	// request header is an equivalent spelling.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Durable parks the response until the decision is replicated to the
	// configured follower-ack count, even when the daemon's sync mode is
	// off (see -repl-sync); the wait degrades to async at the deadline.
	Durable bool `json:"durable,omitempty"`
}

// Submission is one record of a framed submit or batch request: a
// submission plus the relative-time flags the server resolves against its
// clock.
type Submission struct {
	From, To  int
	Volume    units.Volume
	MaxRate   units.Bandwidth
	NotBefore units.Time
	Deadline  units.Time
	// RelNotBefore/RelDeadline mark the corresponding field as an offset
	// from the server's current service time rather than an absolute
	// instant — the binary spelling of start_in / deadline_in.
	RelNotBefore   bool
	RelDeadline    bool
	Durable        bool
	IdempotencyKey string
}

// Check refuses a record a frame cannot carry: a point past 32 bits, or a
// key past MaxKeyBytes.
func (ws *Submission) Check() error {
	return firstErr(checkPoint("from", ws.From), checkPoint("to", ws.To), CheckKey("idempotency_key", ws.IdempotencyKey))
}

// firstErr is the first of errs that is not nil.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Wire resolves the dual numeric/string quantity fields of the JSON
// request shape into a wire record without touching a clock: relative
// times stay relative (flagged), so whichever daemon finally decides the
// submission resolves them against its own service clock. The JSON codec
// of the daemon and the router, and the client's encoders, share this; it
// refuses what Check refuses.
func (req SubmitRequest) Wire() (Submission, error) {
	ws := Submission{
		From:           req.From,
		To:             req.To,
		Volume:         units.Volume(req.VolumeBytes),
		MaxRate:        units.Bandwidth(req.MaxRateBps),
		NotBefore:      units.Time(req.NotBeforeS),
		Deadline:       units.Time(req.DeadlineS),
		Durable:        req.Durable,
		IdempotencyKey: req.IdempotencyKey,
	}
	ws.RelNotBefore, ws.RelDeadline = req.StartIn != "", req.DeadlineIn != ""
	err := firstErr(ws.Check(),
		spelled(req.Volume, req.VolumeBytes, "volume and volume_bytes", units.ParseVolume, &ws.Volume),
		spelled(req.MaxRate, req.MaxRateBps, "max_rate and max_rate_bps", units.ParseBandwidth, &ws.MaxRate),
		spelled(req.StartIn, req.NotBeforeS, "start_in and not_before_s", units.ParseTime, &ws.NotBefore),
		spelled(req.DeadlineIn, req.DeadlineS, "deadline_in and deadline_s", units.ParseTime, &ws.Deadline))
	return ws, err
}

// spelled parses a quantity's human spelling s into *q, when there is one;
// its base-unit spelling num may not be set too, and names says both.
func spelled[T ~float64](s string, num float64, names string, parse func(string) (T, error), q *T) (err error) {
	switch {
	case s == "":
	case num != 0:
		err = fmt.Errorf("both %s set", names)
	default:
		*q, err = parse(s)
	}
	return err
}

// The states a decision names, in the order of their codes on the wire.
const (
	// StateBooked: accepted, σ(r) still in the future (book-ahead).
	StateBooked = "booked"
	// StateActive: accepted and transmitting (σ ≤ now < τ).
	StateActive = "active"
	// StateExpired: τ(r) passed; capacity returned.
	StateExpired = "expired"
	// StateCancelled: revoked by the client before τ(r).
	StateCancelled = "cancelled"
	// StateRejected: never admitted; only appears in decisions.
	StateRejected = "rejected"
)

// Durability outcomes for decisions that waited on synchronous follower
// acks. Empty means no sync-ack wait applied to the call (async mode and
// no Durable flag), or the result was served from the idempotency cache
// by a flight whose wait already answered the original caller.
const (
	// DurabilityReplicated: enough follower cursors passed this call's
	// WAL frontier before the answer left — the decision survives the
	// loss of the primary.
	DurabilityReplicated = "replicated"
	// DurabilityDegraded: the sync-ack deadline lapsed; the decision is
	// only locally durable and the caller that asked for replicated
	// durability should retry or escalate.
	DurabilityDegraded = "degraded"
)

// ReservationJSON is the wire form of a decision.
type ReservationJSON struct {
	ID       int     `json:"id"`
	Accepted bool    `json:"accepted"`
	State    string  `json:"state"`
	RateBps  float64 `json:"rate_bps,omitempty"`
	Rate     string  `json:"rate,omitempty"`
	SigmaS   float64 `json:"sigma_s,omitempty"`
	TauS     float64 `json:"tau_s,omitempty"`
	Reason   string  `json:"reason,omitempty"`
	// Durability is the sync-ack outcome when the decision waited on
	// follower acks: "replicated" (enough followers persisted it) or
	// "degraded" (the deadline lapsed; it is only locally durable).
	// Absent when no synchronous replication applied.
	Durability string `json:"durability,omitempty"`
	// Routed is set by the router tier: "cross_shard" when the decision
	// went through the two-phase hold protocol because the pair's ingress
	// and egress points live on different shards. Absent on direct or
	// same-shard answers.
	Routed string `json:"routed,omitempty"`
}

// RoutedCrossShard is ReservationJSON.Routed's value on decisions the
// router drove through the cross-shard two-phase protocol.
const RoutedCrossShard = "cross_shard"

// SpellRate fills in the human rate, which no frame carries, of a grant one
// shard decided (a cross-shard decision never had one), as the JSON face
// spells it.
func (rj *ReservationJSON) SpellRate() {
	if rj.Accepted && rj.Routed == "" {
		rj.Rate = units.Bandwidth(rj.RateBps).String()
	}
}

// BatchRequest is the POST /v1/batch body: up to MaxBatch submissions
// decided in one pass. Items competing for the same scarce window are
// decided in (ingress, egress, input) order, not strictly input order.
type BatchRequest struct {
	Requests []SubmitRequest `json:"requests"`
}

// BatchItemJSON is one submission's outcome within a batch response:
// exactly one of Reservation or Error is set.
type BatchItemJSON struct {
	Reservation *ReservationJSON `json:"reservation,omitempty"`
	Error       string           `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/batch body: one result per submitted
// request, in input order.
type BatchResponse struct {
	Results []BatchItemJSON `json:"results"`
}

// SplitBatch is the per-item salvage of a batch in the JSON shape (a frame
// has none): a request whose quantities do not parse, or that a frame
// cannot carry, fails in its own slot of items, and the rest are the
// records to send.
func SplitBatch(reqs []SubmitRequest) (items []BatchItemJSON, subs []Submission) {
	items = make([]BatchItemJSON, len(reqs))
	subs = make([]Submission, 0, len(reqs))
	for i, req := range reqs {
		ws, err := req.Wire()
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		subs = append(subs, ws)
	}
	return items, subs
}

// MergeBatch fills the slots SplitBatch left open with the answers to the
// records it sent, in order.
func MergeBatch(items, answers []BatchItemJSON) error {
	n := len(answers)
	for i := range items {
		if items[i].Error != "" {
			continue
		}
		if len(answers) == 0 {
			return fmt.Errorf("batch answered %d items for more requests", n)
		}
		items[i], answers = answers[0], answers[1:]
	}
	if len(answers) > 0 {
		return fmt.Errorf("batch answered %d items for %d requests", n, n-len(answers))
	}
	return nil
}

// ErrorJSON is the body of every non-2xx response.
type ErrorJSON struct {
	Error string `json:"error"`
	// RetryAfterS is a 429's backoff hint on the call stream, which has no
	// headers; over HTTP the Retry-After header carries it.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// HoldReserveJSON is the POST /v1/reserve body. The ingress side carries
// the submission (this shard takes the one-sided admission step and
// proposes the grant); the egress side carries the proposed grant for an
// authoritative one-sided check.
type HoldReserveJSON struct {
	Hold string `json:"hold"`
	Side string `json:"side"` // "in" or "eg"
	// Point is the local access point to book; PeerPoint the other
	// side's index on its owning shard.
	Point     int     `json:"point"`
	PeerPoint int     `json:"peer_point"`
	TTLS      float64 `json:"ttl_s,omitempty"`
	// RelTimes marks every time field as an offset from this shard's
	// current service clock instead of an absolute instant. Shard groups
	// keep independent service clocks, so a router spanning them converts
	// one shard's absolute window into offsets (via the NowS it answered)
	// before presenting it to the other.
	RelTimes bool `json:"rel_times,omitempty"`
	// Submission fields (ingress side).
	VolumeBytes float64 `json:"volume_bytes,omitempty"`
	MaxRateBps  float64 `json:"max_rate_bps,omitempty"`
	NotBeforeS  float64 `json:"not_before_s,omitempty"`
	DeadlineS   float64 `json:"deadline_s,omitempty"`
	// Proposed grant (egress side).
	RateBps float64 `json:"rate_bps,omitempty"`
	SigmaS  float64 `json:"sigma_s,omitempty"`
	TauS    float64 `json:"tau_s,omitempty"`
}

// Check refuses a hold a frame cannot carry: a key or side past
// MaxKeyBytes, or a point past 32 bits.
func (q *HoldReserveJSON) Check() error {
	return firstErr(CheckKey("hold key", q.Hold), CheckKey("hold side", q.Side),
		checkPoint("point", q.Point), checkPoint("peer_point", q.PeerPoint))
}

// HoldReserveResponseJSON is the POST /v1/reserve answer. Held=false is
// a domain refusal (200), not a transport failure.
type HoldReserveResponseJSON struct {
	Hold string `json:"hold"`
	Held bool   `json:"held"`
	// ID is the ingress-side local request ID backing the pair; -1 on
	// the egress side.
	ID      int     `json:"id"`
	RateBps float64 `json:"rate_bps,omitempty"`
	SigmaS  float64 `json:"sigma_s,omitempty"`
	TauS    float64 `json:"tau_s,omitempty"`
	// Epoch is this shard's fencing epoch at reserve time; the router
	// presents it on CONFIRM so a failover mid-hold is detected.
	Epoch uint64 `json:"epoch"`
	// NowS is this shard's service clock at answer time, so the caller
	// can convert the absolute grant window into offsets for the peer
	// shard (whose service clock is independent).
	NowS   float64 `json:"now_s"`
	Reason string  `json:"reason,omitempty"`
	// Code and Error report this item's own failure as the HTTP status and
	// message a one-item call would have answered (400: malformed); zero
	// when the item was decided.
	Code  int    `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// HoldRefJSON addresses a hold on POST /v1/confirm and /v1/abort: by key,
// or (abort only) by the ingress-side local request ID a cancel resolved.
type HoldRefJSON struct {
	Hold string `json:"hold,omitempty"`
	// ID is a pointer because 0 is a valid request ID: absent and zero
	// must stay distinguishable on the wire.
	ID *int `json:"id,omitempty"`
	// Epoch, when non-zero on confirm, must match the shard's current
	// fencing epoch — a confirm aimed at a deposed lineage is refused.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Check refuses a ref whose key a frame cannot carry.
func (ref *HoldRefJSON) Check() error { return CheckKey("hold key", ref.Hold) }

// HoldStateJSON answers confirm and abort.
type HoldStateJSON struct {
	Hold  string `json:"hold"`
	State string `json:"state"`
	// Released reports whether this call returned booked capacity.
	Released bool `json:"released"`
	// Side/PeerPoint let an abort-by-ID caller find the other half of
	// the pair.
	Side      string `json:"side,omitempty"`
	PeerPoint int    `json:"peer_point"`
	Epoch     uint64 `json:"epoch"`
	// Code and Error report this item's own failure (400: no key or id,
	// 404: unknown hold, 409: confirm of a hold that already rolled back —
	// the caller must abort the peer side); zero when the item was applied.
	Code  int    `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// HoldListJSON is the body of POST /v1/reserve (T = HoldReserveJSON) and
// of POST /v1/confirm and /v1/abort (T = HoldRefJSON): every hold one
// caller has for this shard, decided in list order.
type HoldListJSON[T any] struct {
	Holds []T `json:"holds"`
}

// HoldResultsJSON answers a HoldListJSON, one result per hold in list
// order (HoldReserveResponseJSON for reserve, HoldStateJSON otherwise).
type HoldResultsJSON[T any] struct {
	Results []T `json:"results"`
}

// PointJSON is one access point's line of the status page.
type PointJSON struct {
	Dir         string  `json:"dir"`
	Point       int     `json:"point"`
	CapacityBps float64 `json:"capacity_bps"`
	UsedBps     float64 `json:"used_bps"`
	Utilization float64 `json:"utilization"`
}

// StatusJSON is the GET /v1/status body.
type StatusJSON struct {
	NowS           float64 `json:"now_s"`
	Policy         string  `json:"policy"`
	Role           string  `json:"role"`
	Epoch          uint64  `json:"epoch"`
	Booked         int     `json:"booked"`
	Active         int     `json:"active"`
	Submitted      uint64  `json:"submitted"`
	Accepted       uint64  `json:"accepted"`
	Rejected       uint64  `json:"rejected"`
	Cancelled      uint64  `json:"cancelled"`
	Expired        uint64  `json:"expired"`
	Shed           uint64  `json:"shed"`
	IdempotentHits uint64  `json:"idempotent_hits"`
	Panics         uint64  `json:"panics"`
	Batches        uint64  `json:"batches"`
	BatchRequests  uint64  `json:"batch_requests"`
	AcceptRate     float64 `json:"accept_rate"`
	MeanGrantedBps float64 `json:"mean_granted_rate_bps"`
	// LogAppendFailures and DurabilityDegraded surface WAL or decision-sink
	// appends that failed: the daemon keeps serving, but its log has a hole
	// a crash could turn into forgotten decisions.
	LogAppendFailures  uint64      `json:"log_append_failures"`
	DurabilityDegraded bool        `json:"durability_degraded"`
	Points             []PointJSON `json:"points"`
}

// HealthJSON is the GET /v1/healthz body.
type HealthJSON struct {
	Status      string  `json:"status"` // "ok", "degraded" or "draining"
	NowS        float64 `json:"now_s"`
	Role        string  `json:"role"`
	Epoch       uint64  `json:"epoch"`
	InFlight    int     `json:"in_flight"`
	MaxInFlight int     `json:"max_in_flight"`
	Shed        uint64  `json:"shed_total"`
	// DurabilityDegraded reports WAL or decision-sink append failures; the
	// daemon still serves (200), but its log has a hole.
	DurabilityDegraded bool `json:"durability_degraded"`
	// WALPoisoned reports a fail-stopped WAL: durable admissions are
	// refused (503) until the daemon restarts.
	WALPoisoned bool `json:"wal_poisoned,omitempty"`
	// ReplicationLagBytes is how far a follower runs behind its primary.
	ReplicationLagBytes int64 `json:"replication_lag_bytes,omitempty"`
}
