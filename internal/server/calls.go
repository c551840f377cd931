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
	"gridbw/internal/units"
	"gridbw/internal/wire"
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
// serves tagged calls on that connection from then on (internal/wire has
// the format). Each call runs on a worker of its own as soon as it is read:
// the stream keeps a few workers, whose goroutines and grown stacks outlive
// their calls, and starts another only when none is idle (callServer). A
// writer that cannot be taken over, or a request without the offer, is
// answered over plain HTTP, byte for byte as before.

// callIdle is how long a call stream with nothing in flight waits for its
// next call before hanging up; the client's next call then goes over HTTP
// and offers again.
const callIdle = 2 * time.Minute

// A Call is one framed operation: its op and its request frame in Buf,
// which the operation encodes its answer frame over.
type Call struct {
	Op  wire.Op
	Buf *wire.FrameBuf
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
	return Reply{Status: status, JSON: wire.ErrorJSON{Error: err.Error()}}
}

// CallHandler answers a call. The daemon's is Server.Call, the router's
// Router.Call.
type CallHandler func(ctx context.Context, c *Call) Reply

// CallRoute serves one route of the request plane; every request on it is
// a Call through h. The route reads a body under the framed bound
// (FrameBuf.ReadBody), or puts the path's id in a request frame. A framed
// body, or a lookup or cancel by id that offers the call stream, is the
// call as it is; anything else goes through the op's JSON codec (face).
func CallRoute(ss *Streams, h CallHandler, op wire.Op, face JSONFace) http.Handler {
	byID := op.ByID()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := Call{Op: op, Buf: wire.NewFrameBuf()}
		var err error
		if byID {
			var id int
			if id, err = pathID(r); err == nil {
				c.Buf.B = wire.AppendIDFrame(c.Buf.B, id)
			}
		} else {
			err = c.Buf.ReadBody(r.Body, r.ContentLength)
		}
		if err != nil {
			c.Buf.Release()
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		if byID && wantsUpgrade(r, wire.CallProtocol) || !byID && Framed(r) {
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
// through h on workers of its own, so the handler returns at once.
func serveCall(w http.ResponseWriter, r *http.Request, ss *Streams, h CallHandler, c *Call) {
	rep := h(r.Context(), c)
	if st, ok := ss.upgrade(w, r, wire.CallProtocol); ok {
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
	h := w.Header()
	h["Content-Type"] = frameContentType
	// net/http computes the length itself of a body that fits its 2 KiB
	// write buffer; beyond that, saying it up front avoids chunking.
	if len(frame) > 2048 {
		h["Content-Length"] = []string{strconv.Itoa(len(frame))}
	}
	w.WriteHeader(rep.Status)
	_, _ = w.Write(frame)
}

// writeAnswer sends one answer on the stream; buf holds the answer frame,
// and is overwritten by a JSON reply's body.
func writeAnswer(st *stream, tag uint32, rep Reply, buf *wire.FrameBuf) error {
	codec := wire.CodecFrame
	if rep.JSON != nil {
		codec = wire.CodecJSON
		v := rep.JSON
		if e, ok := v.(wire.ErrorJSON); ok && rep.RetryAfter > 0 {
			e.RetryAfterS = rep.RetryAfter
			v = e
		}
		buf.B = wire.AppendJSONFrame(buf.B[:0], v)
	}
	var hdr [wire.AnswerHeaderBytes]byte
	return st.write(wire.AppendAnswerHeader(hdr[:0], tag, rep.Status, codec), buf.B)
}

// serveCalls serves calls on st until it ends — the caller hung up or sent
// what cannot be read, the set closed, a write failed, or nothing was in
// flight for callIdle — answering each on a worker of its own, so a durable
// submit parked on a quorum ack holds up no lookup behind it. Answers go
// out in the order their calls finish. A call still running when the
// stream ends finds its context cancelled, and its answer goes nowhere: the
// caller retries it by its key.
func serveCalls(st *stream, h CallHandler) {
	ctx, cancel := context.WithCancel(context.Background())
	cs := &callServer{st: st, h: h, ctx: ctx, turn: make(chan struct{})}
	st.goRun(func() {
		<-st.done()
		cancel()
	})
	st.goRun(cs.work)
}

// callIdleWorkers is how many idle workers a call stream keeps; a worker
// that finds that many already idle when it finishes its call exits.
const callIdleWorkers = 8

// callServer is the state the workers of one call stream share. One worker
// at a time reads; it hands the next read to an idle worker, or to a new
// one when none is idle, answers the call it read and then waits idle for
// its next turn. A worker keeps its goroutine, and the stack that goroutine
// grew, from one call to the next.
type callServer struct {
	st       *stream
	h        CallHandler
	ctx      context.Context
	inflight atomic.Int32
	// turn hands the read to an idle worker: a send succeeds only when one
	// is waiting on it.
	turn chan struct{}
	idle atomic.Int32
}

// work serves calls until the stream ends. It starts holding the turn to
// read, and no call waits for a worker before it starts. The worker's one
// Call carries each call it serves: the handler takes its address, so a
// Call per call would be one more allocation per call.
func (cs *callServer) work() {
	var c Call
	for {
		var tag uint32
		var ok bool
		if tag, c, ok = cs.read(); !ok {
			return
		}
		cs.inflight.Add(1)
		select {
		case cs.turn <- struct{}{}:
		default:
			cs.st.goRun(cs.work)
		}
		_ = writeAnswer(cs.st, tag, recovered(cs.ctx, cs.h, &c), c.Buf)
		c.Buf.Release()
		cs.inflight.Add(-1)
		if !cs.rejoin() {
			return
		}
	}
}

// read reads the next call. A read that times out with calls in flight
// reads on; any other failure hangs the stream up and answers false.
func (cs *callServer) read() (uint32, Call, bool) {
	st := cs.st
	buf := wire.NewFrameBuf()
	for {
		st.readWithin(callIdle)
		tag, op, frame, err := wire.ReadCall(st.reader, buf.B[:0])
		buf.B = frame
		if err == nil {
			return tag, Call{Op: op, Buf: buf}, true
		}
		if !isTimeout(err) || cs.inflight.Load() == 0 {
			buf.Release()
			st.hangUp()
			return 0, Call{}, false
		}
	}
}

// rejoin waits idle for the next turn to read, and reports false when the
// worker should exit instead: enough workers are idle already, or the
// stream ended.
func (cs *callServer) rejoin() bool {
	if cs.idle.Add(1) > callIdleWorkers {
		cs.idle.Add(-1)
		return false
	}
	defer cs.idle.Add(-1)
	select {
	case <-cs.turn:
		return true
	case <-cs.st.done():
		return false
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

// --- the daemon's operations ---------------------------------------------

// serverOp is one row of the daemon's op table: the operation, and whether
// it takes an in-flight slot (the submissions and RESERVE do; a CONFIRM or
// ABORT settles capacity already held, and a lookup or cancel takes none).
type serverOp struct {
	call func(s *Server, c *Call) Reply
	shed bool
}

var serverOps = [...]serverOp{
	wire.OpSubmit:  {(*Server).callSubmit, true},
	wire.OpBatch:   {(*Server).callBatch, true},
	wire.OpReserve: {holdCall(wire.DecodeHoldReserveList, (*Server).HoldReserve, wire.AppendHoldReserveResults), true},
	wire.OpConfirm: {holdCall(wire.DecodeHoldRefList, (*Server).HoldConfirm, wire.AppendHoldStates), false},
	wire.OpAbort:   {holdCall(wire.DecodeHoldRefList, (*Server).HoldAbort, wire.AppendHoldStates), false},
	wire.OpGet:     {byIDCall((*Server).Lookup), false},
	wire.OpCancel:  {byIDCall((*Server).Cancel), false},
}

// Call answers one call, whichever face or carrier brought it: the one
// in-flight check, with its 429 and Retry-After, and a panic counted and
// answered 500.
func (s *Server) Call(_ context.Context, c *Call) (rep Reply) {
	defer func() {
		if v := recover(); v != nil {
			s.recordPanic("call "+c.Op.String(), v)
			rep = ErrorReply(http.StatusInternalServerError, errInternal)
		}
	}()
	if !c.Op.Valid() {
		return ErrorReply(http.StatusNotFound, fmt.Errorf("unknown %s", c.Op))
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
func (c *Call) DecodeSubmit() (wire.Submission, error) {
	ws, err := wire.DecodeSubmitRequest(c.Buf.B)
	if err == nil {
		ws.IdempotencyKey, err = mergeKey(c.Key, ws.IdempotencyKey)
	}
	return ws, err
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
	return wire.EndAnswer(dst, at)
}

// reservationOf is d in the item shape, as a decision item carries it.
func reservationOf(d Decision) wire.ReservationJSON {
	return wire.ReservationJSON{
		ID: int(d.ID), Accepted: d.Accepted, State: string(d.State), Reason: d.Reason,
		RateBps: float64(d.Rate), SigmaS: float64(d.Sigma), TauS: float64(d.Tau),
	}
}

func (s *Server) callSubmit(c *Call) Reply {
	ws, err := c.DecodeSubmit()
	if err != nil {
		return ErrorReply(http.StatusBadRequest, err)
	}
	res, err := s.submitOne(resolve(&ws, s.nowFor(ws)))
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
	recs, err := wire.DecodeBatchRequest(c.Buf.B, s.maxBatch)
	if err != nil {
		return ErrorReply(http.StatusBadRequest, err)
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

// byIDCall is the operation of a lookup (find is Server.Lookup) or a
// cancel (Server.Cancel) of the id in the call's frame.
func byIDCall(find func(*Server, request.ID) (Decision, error)) func(*Server, *Call) Reply {
	return func(s *Server, c *Call) Reply {
		id, err := wire.DecodeIDFrame(c.Buf.B)
		if err != nil {
			return ErrorReply(http.StatusBadRequest, err)
		}
		d, err := find(s, request.ID(id))
		switch {
		case err == nil:
			c.Buf.B = AppendBinaryBatchResponse(c.Buf.B[:0], []BatchResult{{Decision: d}})
			return Reply{Status: http.StatusOK}
		case errors.Is(err, ErrFinished):
			// A cancel's final record rides the 409, spelled as in JSON.
			rj := reservationOf(d)
			spellDecision(&rj, true)
			return Reply{Status: http.StatusConflict, JSON: rj}
		default:
			return callErrorReply(err)
		}
	}
}
