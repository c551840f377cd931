// Package callplane is the server half of the request plane, shared by the
// daemon and the router: the framed call and its answer, the call stream
// and its workers, the JSON face in front of each call (jsonface.go), and
// the one helper that takes a connection over for the call stream or the
// daemon's replication stream (Streams). Its owner's CallHandler answers
// each call, decoding the request frame and encoding the answer over the
// same buffer, whether a framed HTTP request (CallRoute) or the call
// stream (serveCalls) brought it; the package links none of the daemon.
//
// Any framed call offers Connection: Upgrade, Upgrade: gridbw-call/1. A
// daemon or router that can take the connection over answers the call,
// writes 101 and the answer as the first frame of the call stream, and
// serves tagged calls on that connection from then on (internal/wire has
// the format). Each call runs on a worker of its own as soon as it is read:
// the stream keeps a few workers, whose goroutines and grown stacks outlive
// their calls, and starts another only when none is idle (callServer). A
// writer that cannot be taken over, or a request without the offer, is
// answered over plain HTTP.
package callplane

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"gridbw/internal/wire"
)

const (
	// callIdle is how long a call stream with nothing in flight waits for
	// its next call before hanging up; the client's next call then goes
	// over HTTP and offers again.
	callIdle = 2 * time.Minute
	// callWriteIdle bounds each write on a call stream: a caller that takes
	// none of an answer for that long stopped reading, and the stream ends.
	callWriteIdle = 12 * time.Second
)

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

// CallHandler answers a call. The daemon's is server.Server.Call, the
// router's router.Router.Call.
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
			id, aerr := strconv.Atoi(r.PathValue("id"))
			if aerr != nil || id < 0 {
				err = fmt.Errorf("bad reservation id %q", r.PathValue("id"))
			} else {
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
		if byID && WantsUpgrade(r, wire.CallProtocol) || !byID && Framed(r) {
			c.Key = r.Header.Get("Idempotency-Key")
			serveCall(w, r, ss, h, &c)
			return
		}
		rep := jsonOps[op](r, &c, func() Reply { return h(r.Context(), &c) }, face)
		c.Buf.Release()
		writeReply(w, rep, nil)
	})
}

// serveCall answers one call that came over HTTP, and takes the connection
// over for the call stream when the request offered it: the answer is then
// the stream's first frame, tag 0, and the stream serves later calls
// through h on workers of its own, so the handler returns at once.
func serveCall(w http.ResponseWriter, r *http.Request, ss *Streams, h CallHandler, c *Call) {
	rep := h(r.Context(), c)
	if st, ok := ss.Upgrade(w, r, wire.CallProtocol, callWriteIdle); ok {
		err := writeAnswer(st, 0, rep, c.Buf)
		c.Buf.Release()
		if err != nil {
			st.End()
			return
		}
		serveCalls(st, h)
		st.release() // the stream's goroutines carry on without this one
		return
	}
	writeReply(w, rep, c.Buf.B)
	c.Buf.Release()
}

// writeReply answers a call over HTTP: frame is the answer frame, used
// unless the reply is JSON.
func writeReply(w http.ResponseWriter, rep Reply, frame []byte) {
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
func writeAnswer(st *Stream, tag uint32, rep Reply, buf *wire.FrameBuf) error {
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
	return st.Write(wire.AppendAnswerHeader(hdr[:0], tag, rep.Status, codec), buf.B)
}

// serveCalls serves calls on st until it ends — the caller hung up or sent
// what cannot be read, the set closed, a write failed, or nothing was in
// flight for callIdle — answering each on a worker of its own, so a durable
// submit parked on a quorum ack holds up no lookup behind it. Answers go
// out in the order their calls finish. A call still running when the
// stream ends finds its context cancelled, and its answer goes nowhere: the
// caller retries it by its key.
func serveCalls(st *Stream, h CallHandler) {
	ctx, cancel := context.WithCancel(context.Background())
	cs := &callServer{st: st, h: h, ctx: ctx, turn: make(chan struct{})}
	st.Go(func() {
		<-st.Done()
		cancel()
	})
	st.Go(cs.work)
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
	st       *Stream
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
			cs.st.Go(cs.work)
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
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() || cs.inflight.Load() == 0 {
			buf.Release()
			st.HangUp()
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
	case <-cs.st.Done():
		return false
	}
}

// recovered runs h, answering a panic with a 500 instead of taking the
// process down with it: a stream's goroutines are not net/http's, which
// would have recovered it. (The daemon's handler counts its own panics.)
func recovered(ctx context.Context, h CallHandler, c *Call) (rep Reply) {
	defer func() {
		if v := recover(); v != nil {
			rep = ErrorReply(http.StatusInternalServerError, ErrInternal)
		}
	}()
	return h(ctx, c)
}

// ErrInternal is the error a call that panicked answers with.
var ErrInternal = errors.New("internal error")

// DecodeSubmit decodes the one-record frame of a submit call, with the
// Idempotency-Key header of a framed HTTP submit merged in.
func (c *Call) DecodeSubmit() (wire.Submission, error) {
	ws, err := wire.DecodeSubmitRequest(c.Buf.B)
	if err == nil {
		ws.IdempotencyKey, err = mergeKey(c.Key, ws.IdempotencyKey)
	}
	return ws, err
}
