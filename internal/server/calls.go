package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"gridbw/internal/callplane"
	"gridbw/internal/request"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// serverOp is one row of the daemon's op table: the operation, and whether
// it takes an in-flight slot (the submissions and RESERVE do; a CONFIRM or
// ABORT settles capacity already held, and a lookup or cancel takes none).
type serverOp struct {
	call func(s *Server, c *callplane.Call) callplane.Reply
	shed bool
}

var serverOps = [...]serverOp{
	wire.OpSubmit:  {(*Server).callSubmit, true},
	wire.OpBatch:   {(*Server).callBatch, true},
	wire.OpReserve: {holdCall(wire.DecodeHoldReserveList, (*Server).HoldReserve, wire.AppendHoldReserveResults), true},
	wire.OpConfirm: {holdCall(wire.DecodeHoldRefs, (*Server).HoldConfirm, wire.AppendHoldStates), false},
	wire.OpAbort:   {holdCall(wire.DecodeHoldRefs, (*Server).HoldAbort, wire.AppendHoldStates), false},
	wire.OpGet:     {byIDCall((*Server).Lookup), false},
	wire.OpCancel:  {byIDCall((*Server).Cancel), false},
}

var errOverloaded = errors.New("server: overloaded, retry later")

// Call answers one call, whichever face or carrier brought it: the one
// in-flight check, whose 429 and Retry-After hint turn overload into fast,
// explicit backpressure, and a panic counted and answered 500.
func (s *Server) Call(_ context.Context, c *callplane.Call) (rep callplane.Reply) {
	defer func() {
		if v := recover(); v != nil {
			s.recordPanic("call "+c.Op.String(), v)
			rep = callplane.ErrorReply(http.StatusInternalServerError, callplane.ErrInternal)
		}
	}()
	if !c.Op.Valid() {
		return callplane.ErrorReply(http.StatusNotFound, fmt.Errorf("unknown %s", c.Op))
	}
	op := serverOps[c.Op]
	if op.shed {
		if !s.acquire() {
			s.recordShed()
			rep := callplane.ErrorReply(http.StatusTooManyRequests, errOverloaded)
			rep.RetryAfter = int((s.retryAfter + time.Second - 1) / time.Second)
			return rep
		}
		defer s.release()
	}
	return op.call(s, c)
}

// callErrorReply answers the failure of a core call as a whole with the
// status codes the failover-aware client keys on: 503 retry (draining, or
// a poisoned WAL), 403 move to the primary or refresh the epoch, 404 no such
// reservation, 400 the request itself.
func callErrorReply(err error) callplane.Reply {
	var fenced *FencedError
	switch {
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDurabilityLost):
		return callplane.ErrorReply(http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrReadOnly), errors.As(err, &fenced):
		return callplane.ErrorReply(http.StatusForbidden, err)
	case errors.Is(err, ErrNotFound):
		return callplane.ErrorReply(http.StatusNotFound, err)
	default:
		return callplane.ErrorReply(http.StatusBadRequest, err)
	}
}

// resolve converts a wire record to a Submission against the given
// service-clock reading.
func resolve(ws *wire.Submission, now units.Time) Submission {
	sub := Submission{From: ws.From, To: ws.To, Volume: ws.Volume, MaxRate: ws.MaxRate,
		NotBefore: ws.NotBefore, Deadline: ws.Deadline, IdempotencyKey: ws.IdempotencyKey, Durable: ws.Durable}
	if ws.RelNotBefore {
		sub.NotBefore = now + ws.NotBefore
	}
	if ws.RelDeadline {
		sub.Deadline = now + ws.Deadline
	}
	return sub
}

// AppendBinaryBatchResponse appends the answer frame for results to dst
// and returns it.
func AppendBinaryBatchResponse(dst []byte, results []BatchResult) []byte {
	dst, at := wire.BeginAnswer(dst, len(results))
	for i := range results {
		res := &results[i]
		if res.Err != nil {
			dst = wire.AppendErrorItem(dst, res.Err.Error())
			continue
		}
		rj := reservationOf(res.Decision)
		rj.Durability = res.Durability
		dst = wire.AppendDecision(dst, &rj)
	}
	return wire.EndFrame(dst, at)
}

// reservationOf is d in the item shape, as a decision item carries it.
func reservationOf(d Decision) wire.ReservationJSON {
	return wire.ReservationJSON{
		ID: int(d.ID), Accepted: d.Accepted, State: string(d.State), Reason: d.Reason,
		RateBps: float64(d.Rate), SigmaS: float64(d.Sigma), TauS: float64(d.Tau),
	}
}

func (s *Server) callSubmit(c *callplane.Call) callplane.Reply {
	ws, err := c.DecodeSubmit()
	if err != nil {
		return callplane.ErrorReply(http.StatusBadRequest, err)
	}
	res, err := s.submitOne(resolve(&ws, s.nowFor(ws)))
	if err != nil {
		return callErrorReply(err)
	}
	c.Buf.B = AppendBinaryBatchResponse(c.Buf.B[:0], []BatchResult{res})
	return callplane.Reply{Status: submitStatus(res.Decision.Accepted)}
}

// submitStatus is a submission's status: 201 for a grant, 200 for a
// refusal — a well-formed domain answer, not an HTTP failure.
func submitStatus(accepted bool) int {
	if accepted {
		return http.StatusCreated
	}
	return http.StatusOK
}

func (s *Server) callBatch(c *callplane.Call) callplane.Reply {
	recs, err := wire.DecodeBatchRequest(c.Buf.B, s.maxBatch)
	if err != nil {
		return callplane.ErrorReply(http.StatusBadRequest, err)
	}
	now := s.nowFor(recs...)
	subs := make([]Submission, len(recs))
	for i := range recs {
		subs[i] = resolve(&recs[i], now)
	}
	results, err := s.SubmitBatch(subs)
	if err != nil {
		return callErrorReply(err)
	}
	c.Buf.B = AppendBinaryBatchResponse(c.Buf.B[:0], results)
	return callplane.Reply{Status: http.StatusOK}
}

// holdCall is the operation of one list-shaped hold call: the list is
// bounded like a batch, whole-call failures keep the status codes the
// client keys on, and per-item outcomes ride a 200.
func holdCall[Q, A any](decode func([]byte, int) ([]Q, error), call func(*Server, []Q) ([]A, error),
	encode func([]byte, []A) []byte) func(*Server, *callplane.Call) callplane.Reply {
	return func(s *Server, c *callplane.Call) callplane.Reply {
		holds, err := decode(c.Buf.B, s.maxBatch)
		if err != nil {
			return callplane.ErrorReply(http.StatusBadRequest, err)
		}
		results, err := call(s, holds)
		if err != nil {
			return callErrorReply(err)
		}
		c.Buf.B = encode(c.Buf.B[:0], results)
		return callplane.Reply{Status: http.StatusOK}
	}
}

// byIDCall is the operation of a lookup (find is Server.Lookup) or a
// cancel (Server.Cancel) of the id in the call's frame.
func byIDCall(find func(*Server, request.ID) (Decision, error)) func(*Server, *callplane.Call) callplane.Reply {
	return func(s *Server, c *callplane.Call) callplane.Reply {
		id, err := wire.DecodeIDFrame(c.Buf.B)
		if err != nil {
			return callplane.ErrorReply(http.StatusBadRequest, err)
		}
		d, err := find(s, request.ID(id))
		switch {
		case err == nil:
			c.Buf.B = AppendBinaryBatchResponse(c.Buf.B[:0], []BatchResult{{Decision: d}})
			return callplane.Reply{Status: http.StatusOK}
		case errors.Is(err, ErrFinished):
			// A cancel's final record rides the 409, spelled as in JSON.
			rj := reservationOf(d)
			callplane.SpellDecision(&rj, true)
			return callplane.Reply{Status: http.StatusConflict, JSON: rj}
		default:
			return callErrorReply(err)
		}
	}
}
