package callplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"gridbw/internal/wire"
)

// JSONFace is what the JSON face of a request plane — what curl speaks —
// knows besides its call handler. The face is a codec in front of the call,
// one per op: it decodes the JSON body (or the path's id), refuses what JSON
// says wrong in JSON's own words, encodes the rest as the op's request frame
// and runs it through the same CallHandler a framed call goes through, then
// renders the answer frame as the op's JSON shape. A JSON request is never
// taken over for the call stream.
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

var jsonOps = [...]jsonOp{
	wire.OpSubmit:  jsonSubmit,
	wire.OpBatch:   jsonBatch,
	wire.OpReserve: jsonHolds((*wire.HoldReserveJSON).Check, wire.AppendHoldReserveList, wire.DecodeHoldReserveResults),
	wire.OpConfirm: jsonHolds((*wire.HoldRefJSON).Check, wire.AppendHoldRefList, wire.DecodeHoldStates),
	wire.OpAbort:   jsonHolds((*wire.HoldRefJSON).Check, wire.AppendHoldRefList, wire.DecodeHoldStates),
	wire.OpGet:     jsonByID,
	wire.OpCancel:  jsonByID,
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
		return ErrorReply(http.StatusInternalServerError, ErrInternal)
	}
	rep.JSON = v
	return rep
}

// SpellDecision spells a decision decoded from a frame as the JSON face
// always has: the granted rate and window only on a grant, and with human
// set, the human rate (wire.ReservationJSON.SpellRate).
func SpellDecision(rj *wire.ReservationJSON, human bool) {
	if !rj.Accepted {
		rj.RateBps, rj.SigmaS, rj.TauS = 0, 0, 0
	} else if human {
		rj.SpellRate()
	}
}

// renderDecision renders a one-decision answer frame.
func renderDecision(b []byte) (any, error) {
	rj, err := wire.DecodeSubmitResponse(b)
	SpellDecision(&rj, true)
	return rj, err
}

// jsonSubmit is the JSON face of POST /v1/requests: the body's key merged
// with the Idempotency-Key header before the call.
func jsonSubmit(r *http.Request, c *Call, call func() Reply, _ JSONFace) Reply {
	var body wire.SubmitRequest
	var ws wire.Submission
	err := DecodeJSON(bytes.NewReader(c.Buf.B), "request", &body)
	if err == nil {
		ws, err = body.Wire()
	}
	if err == nil {
		ws.IdempotencyKey, err = mergeKey(r.Header.Get("Idempotency-Key"), ws.IdempotencyKey)
	}
	if err != nil {
		return ErrorReply(http.StatusBadRequest, err)
	}
	c.Buf.B = wire.AppendSubmitRequest(c.Buf.B[:0], &ws)
	return rendered(call(), c, renderDecision)
}

// jsonBatch is the JSON face of POST /v1/batch. An item that cannot be
// framed fails in its own slot and the rest are sent (wire.SplitBatch); a
// batch with no item left is answered without a call. Only an empty or
// oversized batch or an undecodable body fail the whole call before it.
func jsonBatch(_ *http.Request, c *Call, call func() Reply, face JSONFace) Reply {
	var body wire.BatchRequest
	err := DecodeJSON(bytes.NewReader(c.Buf.B), "request", &body)
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
	out, subs := wire.SplitBatch(body.Requests)
	if len(subs) == 0 {
		return Reply{Status: http.StatusOK, JSON: wire.BatchResponse{Results: out}}
	}
	c.Buf.B = wire.AppendBatchRequest(c.Buf.B[:0], subs)
	return rendered(call(), c, func(b []byte) (any, error) {
		items, err := wire.DecodeBatchResponse(b)
		if err == nil {
			err = wire.MergeBatch(out, items)
		}
		if err != nil {
			return nil, err
		}
		for _, it := range out {
			if it.Reservation != nil {
				SpellDecision(it.Reservation, !face.BareBatch)
			}
		}
		return wire.BatchResponse{Results: out}, nil
	})
}

// jsonHolds is the JSON face of one list-shaped hold call: the list is
// bounded like a batch, and a hold the frame cannot carry (check) fails the
// whole call before it.
func jsonHolds[Q, A any](check func(*Q) error, encode func([]byte, []Q) []byte,
	decode func([]byte) ([]A, error)) jsonOp {
	return func(_ *http.Request, c *Call, call func() Reply, face JSONFace) Reply {
		var body wire.HoldListJSON[Q]
		err := DecodeJSON(bytes.NewReader(c.Buf.B), "holds", &body)
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
			return wire.HoldResultsJSON[A]{Results: results}, err
		})
	}
}

// jsonByID is the JSON face of a lookup or cancel; CallRoute put the path's
// id in the request frame.
func jsonByID(_ *http.Request, c *Call, call func() Reply, _ JSONFace) Reply {
	return rendered(call(), c, renderDecision)
}

// Header values every answer sets, preset so that setting one allocates
// nothing. Shared by all responses and never written to.
var (
	jsonContentType  = []string{"application/json"}
	frameContentType = []string{wire.ContentType}
)

// WriteJSON answers with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with the ErrorJSON envelope of every non-2xx response.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, wire.ErrorJSON{Error: err.Error()})
}

// Framed reports whether the caller speaks the internal wire's frames
// rather than JSON; the answer goes back in the same codec. Errors answer
// as JSON envelopes either way — status codes carry the contract.
func Framed(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType)
}

// DecodeJSON is the strict JSON decode of a request body; what names the
// body in the error.
func DecodeJSON(body io.Reader, what string, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", what, err)
	}
	return nil
}

// mergeKey merges a submission's body key with its Idempotency-Key
// request header, the equivalent spelling: either may be absent, but two
// that disagree are an error.
func mergeKey(headerKey, bodyKey string) (string, error) {
	if err := wire.CheckKey("Idempotency-Key header", headerKey); err != nil {
		return "", err
	}
	if headerKey == "" {
		return bodyKey, nil
	}
	if bodyKey != "" && bodyKey != headerKey {
		return "", fmt.Errorf("idempotency_key body field and Idempotency-Key header disagree")
	}
	return headerKey, nil
}
