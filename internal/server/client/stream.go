package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gridbw/internal/wire"
)

// The client's half of the call stream (wire.CallProtocol; the daemon's
// half is server/calls.go): one connection per endpoint, taken over by the
// first framed call whose upgrade offer the server accepted, and shared by
// every caller after it. A daemon or router that takes the offer answers
// the call as the stream's first frame; from then on every framed call to
// that endpoint is a tagged frame on that one connection, pipelined with
// the other callers', instead of an HTTP round trip. A server that ignores
// the offer answers over HTTP, and the next call offers again. Each call
// writes a tagged frame and waits for the answer with its tag; one reader
// goroutine hands the answers out. Nothing on the stream is retried: a
// stream that fails — a read or write error, the per-attempt deadline, a
// cancelled context — fails every call pending on it with a transport
// error, and the retry loop re-sends each over HTTP with its idempotency
// key, offering again.

var (
	upgradeHeader      = []string{"Upgrade"}
	callProtocolHeader = []string{wire.CallProtocol}
	errClientClosed    = errors.New("client closed")
)

// stream returns the call stream open to base, or nil.
func (c *Client) stream(base string) *callStream {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams[base]
}

// offer reports whether a call to base may offer the upgrade: no stream is
// open to it, no other offer is in flight, and the client is not closed.
// A true answer must be paired with offered.
func (c *Client) offer(base string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.streams[base] != nil || c.offering[base] {
		return false
	}
	c.offering[base] = true
	return true
}

func (c *Client) offered(base string) {
	c.mu.Lock()
	delete(c.offering, base)
	c.mu.Unlock()
}

// adopt takes over the connection of a call the server upgraded: it reads
// the call's own answer, the stream's first frame, under the attempt's
// deadline, and keeps the stream for later calls to base unless one is
// already open.
func (c *Client) adopt(ctx context.Context, base string, resp *http.Response, jsonOut any, fromFrame func([]byte) error) error {
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok || !strings.EqualFold(resp.Header.Get("Upgrade"), wire.CallProtocol) {
		resp.Body.Close()
		return fmt.Errorf("gridbwd: upgrade to %q, want %q", resp.Header.Get("Upgrade"), wire.CallProtocol)
	}
	cs := &callStream{rwc: rwc, br: bufio.NewReader(rwc), pending: map[uint32]*pendingCall{}}
	stop := context.AfterFunc(ctx, func() { rwc.Close() })
	buf := wire.NewFrameBuf()
	defer buf.Release()
	tag, status, codec, body, err := wire.ReadAnswer(cs.br, buf)
	if !stop() {
		err = ctx.Err()
	}
	if err == nil && tag != 0 {
		err = fmt.Errorf("first answer has tag %d", tag)
	}
	if err != nil {
		rwc.Close()
		return fmt.Errorf("gridbwd: call stream: %w", err)
	}
	c.mu.Lock()
	if c.closed || c.streams[base] != nil {
		c.mu.Unlock()
		rwc.Close()
	} else {
		c.streams[base] = cs
		cs.gone = func() {
			c.mu.Lock()
			if c.streams[base] == cs {
				delete(c.streams, base)
			}
			c.mu.Unlock()
		}
		c.mu.Unlock()
		go cs.read()
	}
	return decodeAnswer(status, codec, body, jsonOut, fromFrame)
}

// decodeAnswer reads one answer, off the stream or over HTTP: a frame goes
// to fromFrame and JSON to jsonOut, and a status of 300 or more is an
// *APIError — the JSON error envelope's text when there is one, otherwise
// the raw body (a 409 cancel answer carries the reservation, not an
// envelope), otherwise the status line.
func decodeAnswer(status int, codec byte, body []byte, jsonOut any, fromFrame func([]byte) error) error {
	if status >= 300 {
		ae := &APIError{StatusCode: status, Message: fmt.Sprintf("%d %s", status, http.StatusText(status))}
		var env wire.ErrorJSON
		if json.Unmarshal(body, &env) == nil && env.Error != "" {
			ae.Message, ae.RetryAfter = env.Error, time.Duration(max(env.RetryAfterS, 0))*time.Second
		} else if len(body) > 0 {
			ae.Message = strings.TrimSpace(string(body))
		}
		return ae
	}
	var err error
	if codec == wire.CodecFrame && fromFrame != nil {
		err = fromFrame(body)
	} else {
		err = json.Unmarshal(body, jsonOut)
	}
	if err != nil {
		return fmt.Errorf("gridbwd: decode response: %w", err)
	}
	return nil
}

// callStream is one endpoint's call stream.
type callStream struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	// gone forgets the stream on the client once it failed.
	gone func()

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	pending map[uint32]*pendingCall
	next    uint32
	err     error // why the stream failed; nil while it is open
}

// pendingCall is one call waiting for its answer, or for the stream to fail.
type pendingCall struct {
	done   chan struct{}
	status int
	codec  byte
	body   []byte
	buf    *wire.FrameBuf
	err    error
}

var pendingPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan struct{}, 1)} }}

// call sends one call and waits for its answer. The attempt's deadline
// (timeout, when positive) or the end of ctx fails the whole stream: an
// answer that did not come in time may never come, and a connection that
// swallows calls must not take the next ones too.
func (cs *callStream) call(ctx context.Context, timeout time.Duration, op wire.Op, frame []byte, jsonOut any, fromFrame func([]byte) error) error {
	p := pendingPool.Get().(*pendingCall)
	cs.mu.Lock()
	if cs.err != nil {
		err := cs.err
		cs.mu.Unlock()
		pendingPool.Put(p)
		return fmt.Errorf("gridbwd: call stream: %w", err)
	}
	if cs.next++; cs.next == 0 {
		cs.next++ // tag 0 is the upgrading call's
	}
	tag := cs.next
	cs.pending[tag] = p
	cs.mu.Unlock()

	if timeout > 0 {
		t := time.AfterFunc(timeout, func() { cs.fail(context.DeadlineExceeded) })
		defer t.Stop()
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { cs.fail(ctx.Err()) })
		defer stop()
	}
	cs.wmu.Lock()
	cs.wbuf = wire.AppendCall(cs.wbuf[:0], tag, op, frame)
	_, err := cs.rwc.Write(cs.wbuf)
	if cap(cs.wbuf) > 64<<10 {
		cs.wbuf = nil
	}
	cs.wmu.Unlock()
	if err != nil {
		cs.fail(err)
	}
	<-p.done
	defer func() {
		p.buf.Release()
		*p = pendingCall{done: p.done}
		pendingPool.Put(p)
	}()
	if p.err != nil {
		return fmt.Errorf("gridbwd: call stream: %w", p.err)
	}
	return decodeAnswer(p.status, p.codec, p.body, jsonOut, fromFrame)
}

// read hands each answer to the call with its tag until the stream fails.
func (cs *callStream) read() {
	for {
		buf := wire.NewFrameBuf()
		tag, status, codec, body, err := wire.ReadAnswer(cs.br, buf)
		if err != nil {
			buf.Release()
			cs.fail(err)
			return
		}
		cs.mu.Lock()
		p := cs.pending[tag]
		delete(cs.pending, tag)
		cs.mu.Unlock()
		if p == nil {
			buf.Release()
			cs.fail(fmt.Errorf("answer to unknown call %d", tag))
			return
		}
		p.status, p.codec, p.body, p.buf = status, codec, body, buf
		p.done <- struct{}{}
	}
}

// fail ends the stream once: the connection closes, the client forgets it,
// and every call still pending on it fails with err.
func (cs *callStream) fail(err error) {
	cs.mu.Lock()
	if cs.err != nil {
		cs.mu.Unlock()
		return
	}
	cs.err = err
	pending := cs.pending
	cs.pending = nil
	cs.mu.Unlock()
	cs.rwc.Close()
	if cs.gone != nil {
		cs.gone()
	}
	for _, p := range pending {
		p.err = err
		p.done <- struct{}{}
	}
}
