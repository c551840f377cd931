package server

// Cross-shard two-phase holds (DESIGN §11). When the access-point space is
// partitioned across shard groups, a pair whose points live on different
// shards cannot be admitted by either one's two-sided pipeline, so the
// router drives RESERVE/CONFIRM/ABORT down each owner's call stream, one
// hold per owner: the ingress owner's RESERVE proposes a grant and books it
// one-sided under a TTL, the egress owner's checks and books it, CONFIRM on
// both commits them until τ, and ABORT rolls back totally — an unknown key
// leaves a tombstone, so a late RESERVE retry cannot resurrect an aborted
// pair. A hold neither confirmed nor aborted rolls back when its TTL lapses.
//
// The calls are list-shaped: one call carries every hold the router has for
// this shard in the current wave and steps them in order under one pass of
// the clock, one WAL event per hold. A RESERVE list appends hold by hold, so
// that it stops at the first that poisons the WAL; a CONFIRM or ABORT list
// reaches the WAL in one write. A failure of the whole call (closed,
// read-only, poisoned WAL, fenced epoch) is an error; a failure of one item
// is that item's Code/Error. This file is the gate and the answers; each
// step is the state machine's (internal/state), which replay runs too, so a
// promoted follower holds what its primary held.

import (
	"errors"
	"net/http"

	"gridbw/internal/hold"
	"gridbw/internal/request"
	"gridbw/internal/wire"
)

// ErrHoldAborted reports a CONFIRM of a hold that already rolled back
// (TTL lapse or explicit abort) — the router must abort the peer side.
var ErrHoldAborted = errors.New("server: hold already aborted")

// HoldReserve places (or idempotently re-answers) one-sided holds, in
// list order under one pass of the service clock.
func (s *Server) HoldReserve(reqs []wire.HoldReserveJSON) ([]wire.HoldReserveResponseJSON, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	s.advanceLocked()
	out := make([]wire.HoldReserveResponseJSON, len(reqs))
	for i, req := range reqs {
		if s.wal != nil && s.wal.Poisoned() != nil {
			// A hold that cannot be WAL-logged would vanish on failover while
			// its peer side survives — exactly the half-commit the protocol
			// exists to prevent. Refuse outright, also when an earlier hold
			// of this list poisoned the log: the caller's abort (or the TTL)
			// rolls back the ones already booked.
			return nil, ErrDurabilityLost
		}
		res, err := s.st.HoldReserve(s.sim.Now(), req)
		if err != nil {
			out[i] = wire.HoldReserveResponseJSON{Hold: req.Hold, ID: -1, Code: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		out[i] = s.holdReserveAnswerLocked(res)
	}
	return out, nil
}

func (s *Server) holdReserveAnswerLocked(res hold.Result) wire.HoldReserveResponseJSON {
	e := res.Entry
	resp := wire.HoldReserveResponseJSON{
		Hold: e.Key, ID: int(e.ID), Epoch: s.repl.Epoch,
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

// HoldConfirm commits held reservations: the capacity stays booked and
// releases on schedule at τ. Confirming a confirmed hold is idempotent;
// confirming an aborted one is that item's 409 (ErrHoldAborted — the
// router must abort the peer); an unknown key its 404. A non-zero epoch
// that does not match the shard's fences the whole call off — the reserve
// was placed on a deposed lineage, and the caller refreshes and re-sends.
//
// A poisoned WAL refuses the whole call with ErrDurabilityLost, before the
// list and again after its one append: a CONFIRM whose record may not
// survive a failover would leave this side aborted and the peer committed.
// The refusal makes the router abort both sides.
func (s *Server) HoldConfirm(refs []wire.HoldRef) ([]wire.HoldStateJSON, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	for _, ref := range refs {
		if ref.Epoch != 0 && ref.Epoch != s.repl.Epoch {
			return nil, &FencedError{Batch: ref.Epoch, Current: s.repl.Epoch}
		}
	}
	if s.WALPoisoned() {
		return nil, ErrDurabilityLost
	}
	s.beginGroupLocked()
	s.advanceLocked()
	out := make([]wire.HoldStateJSON, len(refs))
	for i, ref := range refs {
		if len(ref.Key) == 0 {
			out[i] = wire.HoldStateJSON{Code: http.StatusBadRequest, Error: "server: confirm without hold key"}
			continue
		}
		out[i] = s.holdStateLocked(hold.Msg{Kind: hold.Confirm, Key: s.holdKeyLocked(ref.Key)})
	}
	s.flushGroupLocked()
	if s.WALPoisoned() {
		return nil, ErrDurabilityLost
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
func (s *Server) HoldAbort(refs []wire.HoldRef) ([]wire.HoldStateJSON, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return nil, err
	}
	s.beginGroupLocked()
	s.advanceLocked()
	out := make([]wire.HoldStateJSON, len(refs))
	for i, ref := range refs {
		key := s.holdKeyLocked(ref.Key)
		if key == "" {
			if !ref.HasID || ref.ID < 0 {
				out[i] = wire.HoldStateJSON{Code: http.StatusBadRequest, Error: "server: abort needs a hold key or id"}
				continue
			}
			var ok bool
			if key, ok = s.st.HoldKeyOf(request.ID(ref.ID)); !ok {
				out[i] = wire.HoldStateJSON{Code: http.StatusNotFound, Error: ErrNotFound.Error()}
				continue
			}
		}
		out[i] = s.holdStateLocked(hold.Msg{Kind: hold.Abort, Key: key, Reason: "aborted before reserve"})
	}
	s.flushGroupLocked()
	return out, nil
}

// holdKeyLocked is the key a ref's bytes name: the hold table's own string
// for a key it knows, so that resolving one copies nothing, and a copy off
// the frame for one it does not (an ABORT files it as a tombstone). The
// refs alias the call's frame, which its answer is encoded over.
func (s *Server) holdKeyLocked(b []byte) string {
	if key, ok := s.st.HoldKey(b); ok {
		return key
	}
	return string(b)
}

// holdStateLocked steps one CONFIRM or ABORT and answers it: 404 for a key
// the table does not know, 409 for a CONFIRM of a hold that already rolled
// back (the router must abort the peer side).
func (s *Server) holdStateLocked(m hold.Msg) wire.HoldStateJSON {
	res := s.st.HoldStep(s.sim.Now(), m)
	if res.Answer == hold.NotFound {
		return wire.HoldStateJSON{Hold: m.Key, Code: http.StatusNotFound, Error: ErrNotFound.Error()}
	}
	e := res.Entry
	st := wire.HoldStateJSON{
		Hold: e.Key, State: e.State.String(), Released: res.Released,
		Side: e.Side, PeerPoint: e.Peer, Epoch: s.repl.Epoch,
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
	return s.st.HoldsBooked()
}
