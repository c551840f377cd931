package server

import (
	"bytes"
	"fmt"
	"net/http"

	"gridbw/internal/units"
)

// The JSON face of the request plane — what curl speaks — is a codec in
// front of the call, one per op, that the daemon and the router share. It
// decodes the JSON body (or the path's id), refuses what JSON says wrong
// in JSON's own words, encodes the rest as the op's request frame and runs
// it through the same CallHandler a framed call goes through. It then
// renders the answer frame as the op's JSON shape. A JSON request is never
// taken over for the call stream.

// JSONFace is what the JSON face of a request plane knows besides its call
// handler.
type JSONFace struct {
	// MaxBatch bounds a JSON batch and a hold list, refused before any call.
	MaxBatch int
	// BareBatch leaves the human rate off the decisions of a JSON batch: the
	// router's batch relays its shards' decisions as their frames spell them.
	BareBatch bool
}

// A jsonOp is the JSON codec of one op. It encodes the JSON request as the
// op's request frame in c.Buf, has call answer it, and returns the answer
// with its frame rendered as JSON; a request refused before the call is
// answered without one.
type jsonOp func(r *http.Request, c *Call, call func() Reply, face JSONFace) Reply

var jsonOps = [numOps]jsonOp{
	OpSubmit:  jsonSubmit,
	OpBatch:   jsonBatch,
	OpReserve: jsonHolds(checkHoldReserve, AppendHoldReserveList, DecodeHoldReserveResults),
	OpConfirm: jsonHolds(checkHoldRef, AppendHoldRefList, DecodeHoldStates),
	OpAbort:   jsonHolds(checkHoldRef, AppendHoldRefList, DecodeHoldStates),
	OpGet:     jsonByID,
	OpCancel:  jsonByID,
}

// rendered is rep with the answer frame in c.Buf rendered as its JSON body.
// A reply that is JSON already — an error envelope, a 409 cancel's
// reservation — stays as it is.
func rendered(rep Reply, c *Call, render func([]byte) (any, error)) Reply {
	if rep.JSON != nil {
		return rep
	}
	v, err := render(c.Buf.B)
	if err != nil {
		return ErrorReply(http.StatusInternalServerError, errInternal)
	}
	rep.JSON = v
	return rep
}

// spellDecision spells a decision decoded from a frame as the JSON face
// always has: the granted rate and window only on a grant, and with human
// set, the human rate, which no frame carries, on a grant one shard
// decided (a cross-shard decision never had one).
func spellDecision(rj *ReservationJSON, human bool) {
	if !rj.Accepted {
		rj.RateBps, rj.SigmaS, rj.TauS = 0, 0, 0
	} else if human && rj.Routed == "" {
		rj.Rate = units.Bandwidth(rj.RateBps).String()
	}
}

// renderDecision renders a one-decision answer frame.
func renderDecision(b []byte) (any, error) {
	rj, err := DecodeBinarySubmitResponse(b)
	spellDecision(&rj, true)
	return rj, err
}

// jsonSubmit is the JSON face of POST /v1/requests: the body's key merged
// with the Idempotency-Key header before the call.
func jsonSubmit(r *http.Request, c *Call, call func() Reply, _ JSONFace) Reply {
	var body SubmitRequest
	var ws WireSubmission
	err := decodeJSON(bytes.NewReader(c.Buf.B), "request", &body)
	if err == nil {
		ws, err = body.Wire()
	}
	if err == nil {
		ws.IdempotencyKey, err = mergeKey(r.Header.Get("Idempotency-Key"), ws.IdempotencyKey)
	}
	if err != nil {
		return ErrorReply(http.StatusBadRequest, err)
	}
	c.Buf.B = AppendBinarySubmitRequest(c.Buf.B[:0], &ws)
	return rendered(call(), c, renderDecision)
}

// jsonBatch is the JSON face of POST /v1/batch. An item whose quantities do
// not parse fails in its own slot and the rest are sent; a batch with no
// item left is answered without a call. Only an empty or oversized batch or
// an undecodable body fail the whole call before it. (A framed batch has no
// such salvage: a malformed frame fails the whole call, since salvaging a
// broken binary stream would decide requests the client never meant.)
func jsonBatch(_ *http.Request, c *Call, call func() Reply, face JSONFace) Reply {
	var body BatchRequest
	err := decodeJSON(bytes.NewReader(c.Buf.B), "request", &body)
	switch n := len(body.Requests); {
	case err != nil:
	case n == 0:
		err = fmt.Errorf("empty batch")
	case n > face.MaxBatch:
		err = fmt.Errorf("batch of %d exceeds limit %d", n, face.MaxBatch)
	}
	if err != nil {
		return ErrorReply(http.StatusBadRequest, err)
	}
	out := BatchResponse{Results: make([]BatchItemJSON, len(body.Requests))}
	wire := make([]WireSubmission, 0, len(body.Requests))
	for i, req := range body.Requests {
		ws, err := req.Wire()
		if err != nil {
			out.Results[i].Error = err.Error()
			continue
		}
		wire = append(wire, ws)
	}
	if len(wire) == 0 {
		return Reply{Status: http.StatusOK, JSON: out}
	}
	c.Buf.B = AppendBinaryBatchRequest(c.Buf.B[:0], wire)
	return rendered(call(), c, func(b []byte) (any, error) {
		items, err := DecodeBinaryBatchResponse(b)
		if err == nil && len(items) != len(wire) {
			err = fmt.Errorf("batch answered %d items for %d requests", len(items), len(wire))
		}
		if err != nil {
			return nil, err
		}
		for i := range out.Results {
			if out.Results[i].Error == "" {
				out.Results[i], items = items[0], items[1:]
				if rj := out.Results[i].Reservation; rj != nil {
					spellDecision(rj, !face.BareBatch)
				}
			}
		}
		return out, nil
	})
}

// jsonHolds is the JSON face of one list-shaped hold call: the list is
// bounded like a batch, and a hold the frame cannot carry fails the whole
// call before it.
func jsonHolds[Q, A any](check func(*Q) error, encode func([]byte, []Q) []byte,
	decode func([]byte) ([]A, error)) jsonOp {
	return func(_ *http.Request, c *Call, call func() Reply, face JSONFace) Reply {
		var body HoldListJSON[Q]
		err := decodeJSON(bytes.NewReader(c.Buf.B), "holds", &body)
		if n := len(body.Holds); err == nil && (n == 0 || n > face.MaxBatch) {
			err = fmt.Errorf("hold list of %d outside [1,%d]", n, face.MaxBatch)
		}
		for i := 0; err == nil && i < len(body.Holds); i++ {
			if err = check(&body.Holds[i]); err != nil {
				err = fmt.Errorf("hold %d: %w", i, err)
			}
		}
		if err != nil {
			return ErrorReply(http.StatusBadRequest, err)
		}
		c.Buf.B = encode(c.Buf.B[:0], body.Holds)
		return rendered(call(), c, func(b []byte) (any, error) {
			results, err := decode(b)
			return HoldResultsJSON[A]{Results: results}, err
		})
	}
}

func checkHoldReserve(q *HoldReserveJSON) error {
	for _, err := range [...]error{CheckKey("hold key", q.Hold), CheckKey("hold side", q.Side),
		checkPoint("point", q.Point), checkPoint("peer_point", q.PeerPoint)} {
		if err != nil {
			return err
		}
	}
	return nil
}

func checkHoldRef(ref *HoldRefJSON) error { return CheckKey("hold key", ref.Hold) }

// jsonByID is the JSON face of a lookup or cancel; CallRoute put the path's
// id in the request frame.
func jsonByID(_ *http.Request, c *Call, call func() Reply, _ JSONFace) Reply {
	return rendered(call(), c, renderDecision)
}
