package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"gridbw/internal/request"
)

// The request plane's framed calls, independent of what carries them. Each
// operation is one function that decodes the request frame, makes one core
// call and encodes the answer over the same buffer; a framed HTTP request
// and a call on an upgraded connection both go through it (CallRoute for
// the first, serveCalls for the second).
//
// Any framed call offers Connection: Upgrade, Upgrade: gridbw-call/1. A
// daemon or router that can take the connection over answers the call,
// writes 101 and the answer as the first frame of the call stream, and
// serves tagged calls on that connection from then on, each on its own
// goroutine (wire.go has the format). A writer that cannot be taken over,
// or a request without the offer, is answered over plain HTTP, byte for
// byte as before.

// CallProtocol is the Upgrade token of the call stream.
const CallProtocol = "gridbw-call/1"

// callIdle is how long a call stream with nothing in flight waits for its
// next call before hanging up; the client's next call then goes over HTTP
// and offers again.
const callIdle = 2 * time.Minute

// A Call is one framed operation: its op and its request frame in Buf,
// which the operation encodes its answer frame over.
type Call struct {
	Op  byte
	Buf *FrameBuf
	// Key is the Idempotency-Key header of a framed HTTP submit, the
	// equivalent spelling of the frame's key; a stream call has none.
	Key string
}

// A Reply is what one call answers: the status the HTTP face of the call
// would get, and either the frame in the call's buffer or, when JSON is
// set, a JSON body (the error envelope, or a 409 cancel's reservation).
type Reply struct {
	Status int
	JSON   any
	// RetryAfter is the backoff hint in seconds of a 429.
	RetryAfter int
}

// ErrorReply answers with the error envelope of every non-2xx response.
func ErrorReply(status int, err error) Reply {
	return Reply{Status: status, JSON: ErrorJSON{Error: err.Error()}}
}

// CallHandler answers a call. The daemon's is Server.Call, the router's
// Router.Call.
type CallHandler func(ctx context.Context, c *Call) Reply

// CallRoute serves one route of the request plane; every request on it is
// a Call through h. The route reads a body under the framed bound
// (FrameBuf.ReadBody), or puts the path's id in a request frame. A framed
// body, or a lookup or cancel by id that offers the call stream, is the
// call as it is; anything else goes through the op's JSON codec (face).
func CallRoute(ss *Streams, h CallHandler, op byte, face JSONFace) http.Handler {
	byID := op == OpGet || op == OpCancel
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := Call{Op: op, Buf: NewFrameBuf()}
		var err error
		if byID {
			var id int
			if id, err = pathID(r); err == nil {
				c.Buf.B = AppendIDFrame(c.Buf.B, id)
			}
		} else {
			err = c.Buf.ReadBody(r.Body, r.ContentLength)
		}
		if err != nil {
			c.Buf.Release()
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		if byID && wantsUpgrade(r, CallProtocol) || !byID && Framed(r) {
			c.Key = r.Header.Get("Idempotency-Key")
			serveCall(w, r, ss, h, &c)
			return
		}
		rep := jsonOps[op](r, &c, func() Reply { return h(r.Context(), &c) }, face)
		c.Buf.Release()
		WriteReply(w, rep, nil)
	})
}

// pathID reads the {id} of a /v1/requests/{id} route.
func pathID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		return 0, fmt.Errorf("bad reservation id %q", r.PathValue("id"))
	}
	return id, nil
}

// serveCall answers one call that came over HTTP, and takes the connection
// over for the call stream when the request offered it: the answer is then
// the stream's first frame, tag 0, and the stream serves later calls
// through h on a goroutine of its own, so the handler returns at once.
func serveCall(w http.ResponseWriter, r *http.Request, ss *Streams, h CallHandler, c *Call) {
	rep := h(r.Context(), c)
	if st, ok := ss.upgrade(w, r, CallProtocol); ok {
		err := writeAnswer(st, 0, rep, c.Buf)
		c.Buf.Release()
		if err != nil {
			st.end()
			return
		}
		serveCalls(st, h)
		st.release() // the stream's goroutines carry on without this one
		return
	}
	WriteReply(w, rep, c.Buf.B)
	c.Buf.Release()
}

// WriteReply answers a call over HTTP: frame is the answer frame, used
// unless the reply is JSON.
func WriteReply(w http.ResponseWriter, rep Reply, frame []byte) {
	if rep.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(rep.RetryAfter))
	}
	if rep.JSON != nil {
		WriteJSON(w, rep.Status, rep.JSON)
		return
	}
	WriteFrame(w, rep.Status, frame)
}

// writeAnswer sends one answer on the stream; buf holds the answer frame,
// and is overwritten by a JSON reply's body.
func writeAnswer(st *stream, tag uint32, rep Reply, buf *FrameBuf) error {
	codec := CodecFrame
	if rep.JSON != nil {
		codec = CodecJSON
		v := rep.JSON
		if e, ok := v.(ErrorJSON); ok && rep.RetryAfter > 0 {
			e.RetryAfterS = rep.RetryAfter
			v = e
		}
		buf.B = appendJSONFrame(buf.B[:0], v)
	}
	var hdr [answerHeaderSize]byte
	return st.write(appendAnswerHeader(hdr[:0], tag, rep.Status, codec), buf.B)
}

// serveCalls serves calls on st until it ends — the caller hung up or sent
// what cannot be read, the set closed, a write failed, or nothing was in
// flight for callIdle — answering each on its own goroutine, so a durable
// submit parked on a quorum ack holds up no lookup behind it. Answers go
// out in the order their calls finish. A call still running when the
// stream ends finds its context cancelled, and its answer goes nowhere: the
// caller retries it by its key.
func serveCalls(st *stream, h CallHandler) {
	ctx, cancel := context.WithCancel(context.Background())
	cs := &callServer{st: st, h: h, ctx: ctx}
	st.goRun(func() {
		<-st.done()
		cancel()
	})
	st.goRun(cs.next)
}

// callServer is the state the goroutines of one call stream share.
type callServer struct {
	st       *stream
	h        CallHandler
	ctx      context.Context
	inflight atomic.Int32
}

// next reads one call, hands the reading of the one after it to a fresh
// goroutine and answers its own call: each call runs on a goroutine of its
// own, and none waits for a hand-off before it starts.
func (cs *callServer) next() {
	st := cs.st
	buf := NewFrameBuf()
	for {
		st.readWithin(callIdle)
		tag, op, frame, err := readCall(st.reader, buf.B[:0])
		buf.B = frame
		if err == nil {
			cs.inflight.Add(1)
			defer cs.inflight.Add(-1)
			st.goRun(cs.next)
			c := Call{Op: op, Buf: buf}
			_ = writeAnswer(st, tag, recovered(cs.ctx, cs.h, &c), buf)
			buf.Release()
			return
		}
		if !isTimeout(err) || cs.inflight.Load() == 0 {
			buf.Release()
			st.hangUp()
			return
		}
	}
}

// recovered runs h, answering a panic with a 500 instead of taking the
// process down with it: a stream's goroutines are not net/http's, which
// would have recovered it. (The daemon's handler counts its own panics.)
func recovered(ctx context.Context, h CallHandler, c *Call) (rep Reply) {
	defer func() {
		if v := recover(); v != nil {
			rep = ErrorReply(http.StatusInternalServerError, errInternal)
		}
	}()
	return h(ctx, c)
}

var errInternal = errors.New("internal error")

// opName names an op for the panic log.
func opName(op byte) string {
	if op > 0 && op < numOps {
		return [...]string{"", "submit", "batch", "reserve", "confirm", "abort", "get", "cancel"}[op]
	}
	return fmt.Sprintf("op %d", op)
}

// --- the daemon's operations ---------------------------------------------

// serverOp is one row of the daemon's op table: the operation, and whether
// it takes an in-flight slot (the submissions and RESERVE do; a CONFIRM or
// ABORT settles capacity already held, and a lookup or cancel takes none).
type serverOp struct {
	call func(s *Server, c *Call) Reply
	shed bool
}

var serverOps = [numOps]serverOp{
	OpSubmit:  {(*Server).callSubmit, true},
	OpBatch:   {(*Server).callBatch, true},
	OpReserve: {holdCall(DecodeHoldReserveList, (*Server).HoldReserve, AppendHoldReserveResults), true},
	OpConfirm: {holdCall(DecodeHoldRefList, (*Server).HoldConfirm, AppendHoldStates), false},
	OpAbort:   {holdCall(DecodeHoldRefList, (*Server).HoldAbort, AppendHoldStates), false},
	OpGet:     {(*Server).callGet, false},
	OpCancel:  {(*Server).callCancel, false},
}

// Call answers one call, whichever face or carrier brought it: the one
// in-flight check, with its 429 and Retry-After, and a panic counted and
// answered 500.
func (s *Server) Call(_ context.Context, c *Call) (rep Reply) {
	defer func() {
		if v := recover(); v != nil {
			s.recordPanic("call "+opName(c.Op), v)
			rep = ErrorReply(http.StatusInternalServerError, errInternal)
		}
	}()
	if c.Op == 0 || c.Op >= numOps {
		return ErrorReply(http.StatusNotFound, fmt.Errorf("unknown %s", opName(c.Op)))
	}
	op := serverOps[c.Op]
	if op.shed {
		if !s.acquire() {
			s.recordShed()
			return s.shedReply()
		}
		defer s.release()
	}
	return op.call(s, c)
}

// callErrorReply answers the failure of a core call as a whole with the
// status codes the failover-aware client keys on: 503 retry (draining, or
// a poisoned WAL), 403 move to the primary or refresh the epoch, 404 no such
// reservation, 400 the request itself.
func callErrorReply(err error) Reply {
	var fenced *FencedError
	switch {
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDurabilityLost):
		return ErrorReply(http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrReadOnly), errors.As(err, &fenced):
		return ErrorReply(http.StatusForbidden, err)
	case errors.Is(err, ErrNotFound):
		return ErrorReply(http.StatusNotFound, err)
	default:
		return ErrorReply(http.StatusBadRequest, err)
	}
}

// DecodeSubmit decodes the one-record frame of a submit call, with the
// Idempotency-Key header of a framed HTTP submit merged in.
func (c *Call) DecodeSubmit() (WireSubmission, error) {
	ws, err := DecodeBinarySubmitRequest(c.Buf.B)
	if err == nil {
		ws.IdempotencyKey, err = mergeKey(c.Key, ws.IdempotencyKey)
	}
	return ws, err
}

func (s *Server) callSubmit(c *Call) Reply {
	ws, err := c.DecodeSubmit()
	if err != nil {
		return ErrorReply(http.StatusBadRequest, err)
	}
	res, err := s.submitOne(ws.resolve(s.nowFor(ws)))
	if err != nil {
		return callErrorReply(err)
	}
	c.Buf.B = AppendBinaryBatchResponse(c.Buf.B[:0], []BatchResult{res})
	return Reply{Status: submitStatus(res.Decision.Accepted)}
}

// submitStatus is a submission's status: 201 for a grant, 200 for a
// refusal — a well-formed domain answer, not an HTTP failure.
func submitStatus(accepted bool) int {
	if accepted {
		return http.StatusCreated
	}
	return http.StatusOK
}

func (s *Server) callBatch(c *Call) Reply {
	wire, err := DecodeBinaryBatchRequest(c.Buf.B, s.maxBatch)
	if err != nil {
		return ErrorReply(http.StatusBadRequest, err)
	}
	now := s.nowFor(wire...)
	subs := make([]Submission, len(wire))
	for i := range wire {
		subs[i] = wire[i].resolve(now)
	}
	results, err := s.SubmitBatch(subs)
	if err != nil {
		return callErrorReply(err)
	}
	c.Buf.B = AppendBinaryBatchResponse(c.Buf.B[:0], results)
	return Reply{Status: http.StatusOK}
}

// holdCall is the operation of one list-shaped hold call: the list is
// bounded like a batch, whole-call failures keep the status codes the
// client keys on, and per-item outcomes ride a 200.
func holdCall[Q, A any](decode func([]byte, int) ([]Q, error), call func(*Server, []Q) ([]A, error),
	encode func([]byte, []A) []byte) func(*Server, *Call) Reply {
	return func(s *Server, c *Call) Reply {
		holds, err := decode(c.Buf.B, s.maxBatch)
		if err != nil {
			return ErrorReply(http.StatusBadRequest, err)
		}
		results, err := call(s, holds)
		if err != nil {
			return callErrorReply(err)
		}
		c.Buf.B = encode(c.Buf.B[:0], results)
		return Reply{Status: http.StatusOK}
	}
}

func (s *Server) callGet(c *Call) Reply {
	id, err := DecodeIDFrame(c.Buf.B)
	if err != nil {
		return ErrorReply(http.StatusBadRequest, err)
	}
	d, err := s.Lookup(request.ID(id))
	if err != nil {
		return callErrorReply(err)
	}
	c.Buf.B = AppendBinaryBatchResponse(c.Buf.B[:0], []BatchResult{{Decision: d}})
	return Reply{Status: http.StatusOK}
}

func (s *Server) callCancel(c *Call) Reply {
	id, err := DecodeIDFrame(c.Buf.B)
	if err != nil {
		return ErrorReply(http.StatusBadRequest, err)
	}
	d, err := s.Cancel(request.ID(id))
	switch {
	case err == nil:
		c.Buf.B = AppendBinaryBatchResponse(c.Buf.B[:0], []BatchResult{{Decision: d}})
		return Reply{Status: http.StatusOK}
	case errors.Is(err, ErrFinished):
		// The final record rides the 409, spelled as in JSON.
		rj := reservationOf(d)
		spellDecision(&rj, true)
		return Reply{Status: http.StatusConflict, JSON: rj}
	default:
		return callErrorReply(err)
	}
}
