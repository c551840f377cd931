package server

// Cross-shard two-phase holds. When the access-point space is partitioned
// across shard groups, a pair whose ingress and egress points live on
// different shards cannot be admitted by either one's two-sided pipeline.
// The router drives the RESERVE/CONFIRM/ABORT protocol over HTTP, one hold
// per owner:
//
//	RESERVE (ingress owner)  the admission step against the ingress
//	                         profile only; proposes a concrete grant and
//	                         books tentative capacity under a TTL
//	RESERVE (egress owner)   authoritative one-sided check of the proposed
//	                         grant; books tentative capacity under a TTL
//	CONFIRM (both)           on dual success: the holds commit and stay
//	                         booked until τ, releasing on schedule
//	ABORT   (both)           on any failure: total rollback — unconfirmed
//	                         holds release at once, confirmed holds get a
//	                         compensating release, unknown keys leave a
//	                         refusal tombstone so a late RESERVE retry
//	                         cannot resurrect an aborted pair
//
// A hold that is never confirmed nor aborted (router crash, partition)
// rolls back when its TTL lapses, so capacity cannot leak.
//
// All three calls are list-shaped: one call carries every hold the router
// has for this shard in the current wave, takes s.mu and advances the
// clock once, and decides the items in list order through the per-hold
// code below — one WAL event per hold, exactly the stream one-item calls
// would have written. A failure of the call as a whole (closed, read-only,
// poisoned WAL, fenced epoch) is an error; a failure of one item is that
// item's Code/Error and leaves its neighbours alone.
//
// This file is the daemon's interpreter of internal/hold's Step, the one
// function that picks the transition a message takes: a RESERVE carries the
// side's own decision (holdDecideLocked: what it books), and holdStepLocked
// answers, arms the timer the result names and logs the transitions it marks.
// The TTL and τ timers deliver their message through the same step. Replay
// (applyEventLocked, which also installs a snapshot's events) runs the same
// step on decoded records, as does internal/distributed's §7 simulator on its
// messages. The table gives capacity back to the shard's ledger through
// alloc.Sharded.HoldRelease. Every transition is WAL-logged (trace.EventHold*),
// so holds survive failover: a promoted follower re-arms the TTL and release
// timers its primary had pending.
// All hold state is guarded by s.mu; the one-sided bookings take the
// single point-shard lock under it, the same nesting direction as the
// expiry and cancel paths.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"gridbw/internal/admit"
	"gridbw/internal/hold"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

const (
	// defaultHoldTTL bounds an unconfirmed hold's life when the caller
	// does not say; maxHoldTTL caps what a caller may ask for, so a buggy
	// router cannot park capacity for hours.
	defaultHoldTTL = 5 * time.Second
	maxHoldTTL     = 60 * time.Second
)

// ErrHoldAborted reports a CONFIRM of a hold that already rolled back
// (TTL lapse or explicit abort) — the router must abort the peer side.
var ErrHoldAborted = errors.New("server: hold already aborted")

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

// HoldReserve places (or idempotently re-answers) one-sided holds, in
// list order under one pass of the service clock.
func (s *Server) HoldReserve(reqs []HoldReserveJSON) ([]HoldReserveResponseJSON, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	s.advanceLocked()
	out := make([]HoldReserveResponseJSON, len(reqs))
	for i, req := range reqs {
		if s.wal != nil && s.wal.Poisoned() != nil {
			// A hold that cannot be WAL-logged would vanish on failover while
			// its peer side survives — exactly the half-commit the protocol
			// exists to prevent. Refuse outright, also when an earlier hold
			// of this list poisoned the log: the caller's abort (or the TTL)
			// rolls back the ones already booked.
			return nil, ErrDurabilityLost
		}
		res, err := s.holdStepLocked(hold.Msg{Kind: hold.Reserve, Key: req.Hold, Decide: func() (hold.Entry, error) {
			return s.holdDecideLocked(req)
		}})
		if err != nil {
			out[i] = HoldReserveResponseJSON{Hold: req.Hold, ID: -1, Code: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		out[i] = s.holdReserveAnswerLocked(res)
	}
	return out, nil
}

// holdDecideLocked is the side's own step of a RESERVE for a key the table
// does not know: the ingress proposes and books, the egress checks and books.
// A key the table already has answers what its first RESERVE decided
// (idempotent re-delivery); a refusal holds no capacity but is filed and
// logged, reason and all, so duplicates answer identically on every replay.
func (s *Server) holdDecideLocked(req HoldReserveJSON) (hold.Entry, error) {
	if req.Hold == "" {
		return hold.Entry{}, fmt.Errorf("server: reserve without hold key")
	}
	if err := CheckKey("server: hold key", req.Hold); err != nil {
		return hold.Entry{}, err
	}
	if !finite(req.TTLS) {
		return hold.Entry{}, fmt.Errorf("server: non-finite hold TTL")
	}
	ttl := time.Duration(req.TTLS * float64(time.Second))
	if ttl <= 0 {
		ttl = defaultHoldTTL
	}
	if ttl > maxHoldTTL {
		ttl = maxHoldTTL
	}
	now := s.sim.Now()
	h := hold.Entry{
		Side: req.Side, Peer: req.PeerPoint, ID: -1,
		Volume: units.Volume(req.VolumeBytes), MaxRate: units.Bandwidth(req.MaxRateBps),
		ExpireAt: now + units.Time(ttl.Seconds()),
	}
	var err error
	switch req.Side {
	case trace.HoldSideIngress:
		err = s.holdProposeLocked(&h, req, now)
	case trace.HoldSideEgress:
		err = s.holdCheckLocked(&h, req, now)
	default:
		err = fmt.Errorf("server: unknown hold side %q (want %q or %q)",
			req.Side, trace.HoldSideIngress, trace.HoldSideEgress)
	}
	return h, err
}

func (s *Server) holdReserveAnswerLocked(res hold.Result) HoldReserveResponseJSON {
	e := res.Entry
	resp := HoldReserveResponseJSON{
		Hold: e.Key, ID: int(e.ID), Epoch: s.repl.epoch,
		NowS: float64(s.sim.Now()), Reason: e.Reason,
	}
	if res.Answer == hold.Granted {
		resp.Held = true
		resp.RateBps = float64(e.BW)
		resp.SigmaS = float64(e.Sigma)
		resp.TauS = float64(e.Tau)
	} else if resp.Reason == "" {
		resp.Reason = "hold aborted"
	}
	return resp
}

// holdProposeLocked is the ingress side of a RESERVE: the admission step
// taken one-sided — the same check and the same one instant, max(NotBefore,
// now), as admitTx, booked against the ingress profile only; the egress
// owner's authoritative check of the grant proposed here is the second
// RESERVE of the protocol. It fills h's point, request ID and grant, or
// h.Reason with why it refused: an empty reason means the grant is booked.
func (s *Server) holdProposeLocked(h *hold.Entry, req HoldReserveJSON, now units.Time) error {
	if req.Point < 0 || req.Point >= s.net.NumIngress() {
		return fmt.Errorf("server: ingress %d out of range [0,%d)", req.Point, s.net.NumIngress())
	}
	start := units.Time(req.NotBeforeS)
	deadline := units.Time(req.DeadlineS)
	if req.RelTimes {
		start += now
		deadline += now
	}
	r := request.Request{
		ID: s.nextID, Ingress: topology.PointID(req.Point), Egress: topology.PointID(req.PeerPoint),
		Start: clampStart(start, now), Finish: deadline,
		Volume: h.Volume, MaxRate: h.MaxRate,
	}
	checked := admit.Check(r)
	if checked.Cause == admit.Malformed {
		return fmt.Errorf("server: %w", checked.Err)
	}
	s.nextID++
	h.Point, h.ID = r.Ingress, r.ID
	if checked.Cause != admit.Admitted {
		h.Reason = checked.Err.Error()
		return nil
	}
	tx := s.ledger.LockPoint(topology.Ingress, h.Point)
	defer tx.Unlock()
	g, no := admit.At(tx, s.pol, r, r.Start)
	switch no.Cause {
	case admit.Admitted:
		h.BW, h.Sigma, h.Tau = g.Bandwidth, g.Sigma, g.Tau
	case admit.Capacity:
		h.Reason = "ingress capacity saturated"
	default:
		h.Reason = no.String()
	}
	return nil
}

// holdCheckLocked is the egress side of a RESERVE: it checks the proposed
// grant against the egress profile and books it tentatively, or fills
// h.Reason if it does not fit.
func (s *Server) holdCheckLocked(h *hold.Entry, req HoldReserveJSON, now units.Time) error {
	if req.Point < 0 || req.Point >= s.net.NumEgress() {
		return fmt.Errorf("server: egress %d out of range [0,%d)", req.Point, s.net.NumEgress())
	}
	sigma, tau := units.Time(req.SigmaS), units.Time(req.TauS)
	if req.RelTimes {
		// In-flight delay may have pushed the proposed start into this
		// shard's past; book from now so the window stays live.
		sigma, tau = clampStart(sigma+now, now), tau+now
	}
	// The proposal is numbers off a frame that no admit.Check has seen on
	// this shard, and every one of them is booked or logged.
	if !finite(float64(sigma), float64(tau), req.RateBps, req.VolumeBytes, req.MaxRateBps) || req.RateBps <= 0 || tau <= sigma {
		return fmt.Errorf("server: degenerate proposed grant")
	}
	h.Point = topology.PointID(req.Point)
	h.BW, h.Sigma, h.Tau = units.Bandwidth(req.RateBps), sigma, tau
	switch {
	case tau <= s.ledger.Floor(topology.Egress, h.Point):
		// An absolute window the profile has already forgotten: nothing
		// there can be checked, so nothing there is booked.
		h.Reason = "proposed window already past"
	case s.ledger.HoldReserve(topology.Egress, h.Point, sigma, tau, h.BW) != nil:
		h.Reason = "egress capacity saturated"
	}
	return nil
}

// HoldConfirm commits held reservations: the capacity stays booked and
// releases on schedule at τ. Confirming a confirmed hold is idempotent;
// confirming an aborted one is that item's 409 (ErrHoldAborted — the
// router must abort the peer); an unknown key its 404. A non-zero epoch
// that does not match the shard's fences the whole call off — the reserve
// was placed on a deposed lineage, and the caller refreshes and re-sends.
func (s *Server) HoldConfirm(refs []HoldRefJSON) ([]HoldStateJSON, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	for _, ref := range refs {
		if ref.Epoch != 0 && ref.Epoch != s.repl.epoch {
			return nil, &FencedError{Batch: ref.Epoch, Current: s.repl.epoch}
		}
	}
	s.advanceLocked()
	out := make([]HoldStateJSON, len(refs))
	for i, ref := range refs {
		if ref.Hold == "" {
			out[i] = HoldStateJSON{Code: http.StatusBadRequest, Error: "server: confirm without hold key"}
			continue
		}
		out[i] = s.holdStateLocked(hold.Msg{Kind: hold.Confirm, Key: ref.Hold})
	}
	return out, nil
}

// HoldAbort rolls holds back, totally: held and confirmed holds release
// their capacity (the latter is the compensating abort of a router that
// crashed between CONFIRMs, or a cross-shard cancel), aborted holds are
// a no-op, and an unknown key leaves a refusal tombstone so a late
// RESERVE retry of an already-aborted pair cannot book fresh capacity.
// Abort is never fenced and never fails on state — it must always be able
// to converge both sides. A ref without a key names the ingress-side local
// request ID instead — the cancel path: the router resolves a client
// cancel of a cross-shard reservation into an abort on both owners.
func (s *Server) HoldAbort(refs []HoldRefJSON) ([]HoldStateJSON, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	s.advanceLocked()
	out := make([]HoldStateJSON, len(refs))
	for i, ref := range refs {
		key := ref.Hold
		if key == "" {
			if ref.ID == nil || *ref.ID < 0 {
				out[i] = HoldStateJSON{Code: http.StatusBadRequest, Error: "server: abort needs a hold key or id"}
				continue
			}
			var ok bool
			if key, ok = s.holds.KeyOf(request.ID(*ref.ID)); !ok {
				out[i] = HoldStateJSON{Code: http.StatusNotFound, Error: ErrNotFound.Error()}
				continue
			}
		}
		out[i] = s.holdStateLocked(hold.Msg{Kind: hold.Abort, Key: key, Reason: "aborted before reserve"})
	}
	return out, nil
}

// holdEvents names the WAL event of each logged hold transition, by the
// message that took it; replay reads it backwards.
var holdEvents = [...]string{
	hold.Reserve: trace.EventHoldReserve, hold.Confirm: trace.EventHoldConfirm,
	hold.Abort: trace.EventHoldAbort, hold.Lapse: trace.EventHoldExpire, hold.Release: trace.EventHoldRelease,
}

// holdStepLocked is the live path's interpreter of one hold step: the table
// picks and takes the transition; this arms the timer the result names and
// logs the transition if it is one to log. The TTL and τ callbacks come back
// through it.
func (s *Server) holdStepLocked(m hold.Msg) (hold.Result, error) {
	res, err := s.holds.Step(m)
	if err != nil {
		return res, err
	}
	s.armHoldLocked(res.Entry, res.Arm)
	if res.Log {
		s.logHoldLocked(holdEvents[m.Kind], res.Entry)
	}
	return res, nil
}

// holdStateLocked steps one CONFIRM or ABORT and answers it: 404 for a key
// the table does not know, 409 for a CONFIRM of a hold that already rolled
// back (the router must abort the peer side).
func (s *Server) holdStateLocked(m hold.Msg) HoldStateJSON {
	res, _ := s.holdStepLocked(m)
	if res.Answer == hold.NotFound {
		return HoldStateJSON{Hold: m.Key, Code: http.StatusNotFound, Error: ErrNotFound.Error()}
	}
	e := res.Entry
	st := HoldStateJSON{
		Hold: e.Key, State: e.State.String(), Released: res.Released,
		Side: e.Side, PeerPoint: e.Peer, Epoch: s.repl.epoch,
	}
	if res.Answer == hold.Conflict {
		st.Code, st.Error = http.StatusConflict, ErrHoldAborted.Error()
	}
	return st
}

// HoldStats reports how many holds currently book capacity, by state —
// the metrics surface and the leak check of the chaos tests.
func (s *Server) HoldStats() (held, confirmed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	return s.holds.Booked()
}

// logHoldLocked audits one hold transition.
func (s *Server) logHoldLocked(kind string, e *hold.Entry) {
	s.appendEventLocked(holdEvent(s.sim.Now(), kind, e))
}

// holdEvent is the one encoder of a hold record, for the live log and the
// snapshot alike. The local point index rides in Ingress or Egress according
// to the side; the peer side's index (on its own shard) fills the other slot
// so the log alone names the pair.
func holdEvent(at units.Time, kind string, e *hold.Entry) trace.Event {
	ev := trace.Event{
		At: float64(at), Kind: kind, Request: int(e.ID),
		Ingress: -1, Egress: -1,
		RateBps: float64(e.BW), SigmaS: float64(e.Sigma), TauS: float64(e.Tau),
		VolumeB: float64(e.Volume), MaxRateBps: float64(e.MaxRate),
		Hold: e.Key, Side: e.Side, Reason: e.Reason,
	}
	if e.Side == trace.HoldSideIngress {
		ev.Ingress, ev.Egress = int(e.Point), e.Peer
	} else if e.Side == trace.HoldSideEgress {
		ev.Ingress, ev.Egress = e.Peer, int(e.Point)
	}
	if kind == trace.EventHoldReserve {
		ev.ExpireS = float64(e.ExpireAt)
	}
	return ev
}

// holdFromEvent decodes the hold a RESERVE record files — holdEvent read
// backwards; a refusal carries its reason.
func holdFromEvent(ev trace.Event) hold.Entry {
	h := hold.Entry{
		Key: ev.Hold, Side: ev.Side, Point: topology.PointID(ev.Ingress), Peer: ev.Egress,
		ID:    request.ID(ev.Request),
		BW:    units.Bandwidth(ev.RateBps),
		Sigma: units.Time(ev.SigmaS), Tau: units.Time(ev.TauS),
		Volume: units.Volume(ev.VolumeB), MaxRate: units.Bandwidth(ev.MaxRateBps),
		ExpireAt: units.Time(ev.ExpireS), Reason: ev.Reason,
	}
	if ev.Side == trace.HoldSideEgress {
		h.Point, h.Peer = topology.PointID(ev.Egress), ev.Ingress
	}
	return h
}

// finite reports whether none of xs is NaN or ±Inf: frames carry raw float
// bits, and a comparison like x <= 0 lets a NaN through.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
