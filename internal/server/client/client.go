// Package client is the typed Go client of the gridbwd HTTP API — the
// counterpart middleware links against instead of hand-rolling requests.
// All calls take a context; cancelling it aborts the HTTP round trip.
//
// Calls that carry a body — Submit, SubmitBatch and the three hold calls —
// speak the daemon's internal wire (the length-prefixed frames of
// internal/wire); the body-less ones read JSON. Client and daemons build
// from one module, so there is no version to negotiate: a request is
// always framed, and the answer is decoded by its own Content-Type, which
// is JSON for every error envelope and for a proxy or test double that
// answers the way curl would be answered.
//
// Those five calls, Get and Cancel are the framed calls, whose methods and
// paths are the rows of wire's op table; each one offers to upgrade its
// connection to the call stream (stream.go).
//
// The client is failure-aware by default: every call gets a per-attempt
// deadline, transient failures (transport errors, 429, 502/503/504) are
// retried with exponential backoff and jitter, and Submit attaches an
// idempotency key so a retried submission can never book twice — the
// daemon answers the retry from its idempotency cache.
//
// Given more than one endpoint, the client is also failover-aware: when
// the active endpoint stops answering like a primary (connection failure,
// 403 read-only, a gateway error, or a fencing refusal), the client asks
// every endpoint for its replication status, re-targets the one that
// reports itself primary with the highest fencing epoch, and re-sends the
// identical request — same body, same idempotency key — so a submission
// that straddles a failover still books exactly once. Endpoint reports
// which daemon the client is currently talking to.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/wire"
)

// Defaults for Options' zero values.
const (
	defaultHTTPTimeout   = 30 * time.Second
	defaultCallTimeout   = 10 * time.Second
	defaultMaxRetries    = 3
	defaultBaseBackoff   = 100 * time.Millisecond
	defaultMaxBackoff    = 2 * time.Second
	defaultProbeCooldown = 500 * time.Millisecond
)

// Options tunes the client's failure handling. The zero value means
// "sensible defaults"; explicit negatives disable a mechanism.
type Options struct {
	// CallTimeout bounds each attempt (not the whole retry sequence);
	// 0 means 10s, negative disables the per-attempt deadline.
	CallTimeout time.Duration
	// MaxRetries is how many times a transient failure is retried after
	// the first attempt; 0 means 3, negative disables retries.
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential backoff
	// (base·2^attempt capped at max, with up to 50% random jitter);
	// zeros mean 100ms and 2s.
	BaseBackoff, MaxBackoff time.Duration
	// Jitter returns a uniform [0,1) draw; nil uses a time-seeded
	// default. Tests inject a constant for determinism.
	Jitter func() float64
	// Sleep waits between attempts; nil sleeps on the real clock,
	// honoring ctx. Tests inject a recorder to run instantly.
	Sleep func(ctx context.Context, d time.Duration) error
	// ProbeCooldown is the negative-result cache of primary rediscovery:
	// after a probe sweep that finds no new primary, further sweeps are
	// skipped (the client just rotates blindly) until the cooldown lapses,
	// so one flapping or permanently-fenced endpoint cannot turn every
	// request into a full group probe. 0 means 500ms, negative disables
	// the cache.
	ProbeCooldown time.Duration
	// Now is the clock the probe cooldown reads; nil uses time.Now.
	// Tests inject a fake to step time deterministically.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.CallTimeout == 0 {
		o.CallTimeout = defaultCallTimeout
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = defaultMaxRetries
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = defaultBaseBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = defaultMaxBackoff
	}
	if o.Jitter == nil {
		o.Jitter = func() float64 {
			return float64(time.Now().UnixNano()%1000) / 1000
		}
	}
	if o.Sleep == nil {
		o.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	if o.ProbeCooldown == 0 {
		o.ProbeCooldown = defaultProbeCooldown
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Client talks to a gridbwd daemon — or, given fallback endpoints, to
// whichever member of a primary/standby pair currently is the primary.
type Client struct {
	hc *http.Client
	// uc is hc's transport without hc's Timeout, for the calls that offer
	// the upgrade: a timeout would wrap a 101's body in a read-only one.
	uc   *http.Client
	opts Options

	// mu guards the endpoint list rotation; endpoints is set at
	// construction and never resized afterwards.
	mu        sync.Mutex
	endpoints []string
	cur       int
	// probeBlockUntil is the negative-result cache of rediscover: until
	// this instant, failed sweeps are not repeated (see
	// Options.ProbeCooldown).
	probeBlockUntil time.Time
	// streams is the call stream open to each endpoint, at most one;
	// offering marks an endpoint with an upgrade offer in flight, so that
	// concurrent callers do not each open a stream. Close ends the streams
	// and stops offering.
	streams  map[string]*callStream
	offering map[string]bool
	closed   bool
}

// New returns a client for the daemon at base (e.g. "http://127.0.0.1:8080")
// with default failure handling. A nil hc uses an internal client with a
// 30s timeout — never http.DefaultClient, whose zero timeout would hang a
// call forever on a stuck daemon. Additional fallback endpoints make the
// client failover-aware: when base stops acting like a primary, the
// client re-discovers the primary among all endpoints and retries there.
func New(base string, hc *http.Client, fallbacks ...string) *Client {
	return NewWithOptions(base, hc, Options{}, fallbacks...)
}

// NewWithOptions returns a client with explicit failure handling.
func NewWithOptions(base string, hc *http.Client, opts Options, fallbacks ...string) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: defaultHTTPTimeout}
	}
	endpoints := make([]string, 0, 1+len(fallbacks))
	endpoints = append(endpoints, strings.TrimRight(base, "/"))
	for _, f := range fallbacks {
		endpoints = append(endpoints, strings.TrimRight(f, "/"))
	}
	return &Client{
		hc: hc, uc: &http.Client{Transport: hc.Transport}, opts: opts.withDefaults(), endpoints: endpoints,
		streams: map[string]*callStream{}, offering: map[string]bool{},
	}
}

// Close ends the client's call streams; later calls go over plain HTTP and
// offer no upgrade. Calls pending on a stream fail with a transport error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	streams := c.streams
	c.streams = map[string]*callStream{}
	c.mu.Unlock()
	for _, cs := range streams {
		cs.fail(errClientClosed)
	}
	return nil
}

// Endpoint reports the endpoint the client currently targets — after a
// successful call, the daemon that answered it.
func (c *Client) Endpoint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoints[c.cur]
}

func (c *Client) multi() bool { return len(c.endpoints) > 1 }

// rotate moves to the next endpoint in order — the blind fallback when
// discovery cannot find a live primary either.
func (c *Client) rotate() {
	c.mu.Lock()
	c.cur = (c.cur + 1) % len(c.endpoints)
	c.mu.Unlock()
}

// NewIdempotencyKey returns a fresh random submission key.
func NewIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to
		// a time-derived key rather than sending duplicate-prone calls.
		return fmt.Sprintf("t-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// APIError is a non-2xx daemon answer.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the daemon's backoff hint on 429 answers; zero
	// otherwise.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gridbwd: HTTP %d: %s", e.StatusCode, e.Message)
}

// IsNotFound reports whether err is the daemon's 404 answer.
func IsNotFound(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.StatusCode == http.StatusNotFound
}

// IsConflict reports whether err is the daemon's 409 answer (cancel of an
// already finished reservation, or a promotion the daemon's group refused).
func IsConflict(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.StatusCode == http.StatusConflict
}

// IsOverloaded reports whether err is the daemon's 429 shed answer.
func IsOverloaded(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.StatusCode == http.StatusTooManyRequests
}

// IsReadOnly reports whether err is the daemon's 403 answer — the daemon
// is a follower and refuses writes until promoted. Not retryable: the
// caller should redirect the write to the primary (or promote).
func IsReadOnly(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.StatusCode == http.StatusForbidden
}

// retryable reports whether err is worth another attempt: transport
// failures and the transient HTTP answers (shed, gateway trouble).
func retryable(err error) bool {
	if ae, ok := err.(*APIError); ok {
		switch ae.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// Anything that never produced an HTTP status is a transport-level
	// failure (dial refused, reset, attempt deadline).
	return err != nil
}

// failoverWorthy reports whether err suggests the targeted endpoint is no
// longer the primary (or no longer there at all), so a multi-endpoint
// client should re-discover before retrying: connection failures, the
// follower's 403 read-only refusal, gateway errors, and any answer shaped
// like a fencing refusal — a deposed primary talking about an epoch that
// outran it.
func failoverWorthy(err error) bool {
	if err == nil {
		return false
	}
	ae, ok := err.(*APIError)
	if !ok {
		return true // transport-level: the endpoint may be gone
	}
	switch ae.StatusCode {
	case http.StatusForbidden, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return strings.Contains(ae.Message, "fenced")
}

// backoff computes the wait before retry attempt (0-based), preferring
// the daemon's own Retry-After hint over the exponential schedule.
func (c *Client) backoff(attempt int, err error) time.Duration {
	if ae, ok := err.(*APIError); ok && ae.RetryAfter > 0 {
		return ae.RetryAfter
	}
	d := c.opts.BaseBackoff << uint(attempt)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	return d + time.Duration(c.opts.Jitter()*float64(d)/2)
}

// route is how one call travels: over HTTP as method and path; and, when
// op is set, as that op on the call stream, which makes it a framed call
// that offers the upgrade, and whose frame is its HTTP body unless the op
// names its reservation by the id in the path.
type route struct {
	method, path string
	op           wire.Op
}

// framed is the route of a framed call of op; id names the reservation of
// a lookup or cancel.
func framed(op wire.Op, id int) route { return route{op.Method(), op.Path(id), op} }

// do runs one retrying body-less call answered in JSON.
func (c *Client) do(ctx context.Context, method, path string, out any) error {
	return c.call(ctx, route{method: method, path: path}, nil, out, nil)
}

// call is the one retry/failover loop under every method. frame is the
// encoded request (nil for a body-less call) and the same bytes are re-sent
// per attempt, so every retry carries the complete request (including the
// same idempotency key). The answer lands in jsonOut when the daemon
// answers JSON, else in whatever fromFrame decodes it into. On a
// failover-worthy error a multi-endpoint client re-discovers the primary
// before the next attempt, which makes the error itself worth that attempt
// even when it is not transiently retryable (a 403 from a follower will
// not heal by waiting, but it will by moving).
func (c *Client) call(ctx context.Context, rt route, frame []byte, jsonOut any, fromFrame func([]byte) error) error {
	retries := c.opts.MaxRetries
	if retries < 0 {
		retries = 0
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = c.attempt(ctx, c.Endpoint(), rt, frame, jsonOut, fromFrame)
		if err == nil {
			return nil
		}
		moved := false
		if c.multi() && failoverWorthy(err) {
			moved = true
			c.rediscover(ctx)
		}
		if (!retryable(err) && !moved) || attempt >= retries {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		if serr := c.opts.Sleep(ctx, c.backoff(attempt, err)); serr != nil {
			return err
		}
	}
}

// rediscover surveys every endpoint's replication status (cluster.Survey:
// concurrent, waiting out a fast answer from a deposed primary, bounded by
// the per-attempt timeout) and re-targets the epoch-dominant primary. When
// nothing answers as primary the client just rotates, so repeated retries
// still sweep the list.
func (c *Client) rediscover(ctx context.Context) {
	c.mu.Lock()
	blocked := c.opts.ProbeCooldown > 0 && c.opts.Now().Before(c.probeBlockUntil)
	c.mu.Unlock()
	if blocked {
		// A sweep just failed to move us anywhere useful; probing the whole
		// group again this soon would only amplify one flapping endpoint's
		// errors into group-wide status traffic. Rotate blindly instead.
		c.rotate()
		return
	}
	if c.opts.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.CallTimeout)
		defer cancel()
	}
	primary, _, found := cluster.Survey(ctx, c.hc, c.endpoints).Primary(0)
	c.mu.Lock()
	defer c.mu.Unlock()
	if found && primary != c.endpoints[c.cur] {
		// The sweep actually moved us to a different primary: a useful
		// answer, so the next failure may probe again immediately (fast
		// failover convergence is worth the traffic).
		c.cur = slices.Index(c.endpoints, primary)
		return
	}
	// Negative result: no primary anywhere, or the sweep re-picked the
	// endpoint that just failed us (a flapping shard whose status page
	// still says primary). Cache it so the next failures within the
	// cooldown skip the group probe.
	if c.opts.ProbeCooldown > 0 {
		c.probeBlockUntil = c.opts.Now().Add(c.opts.ProbeCooldown)
	}
	if !found {
		c.cur = (c.cur + 1) % len(c.endpoints)
	}
}

// encodeFrame encodes one request into the bytes every attempt of its call
// sends. The encoder runs in pooled scratch, so a long list costs no
// growth reallocations, and the result is one exact-size copy that the
// garbage collector owns: net/http may still be reading a request body
// after RoundTrip has returned (an answer can overtake the write; only the
// body's Close says otherwise), and a body type that reports Close is one
// net/http no longer recognises as in-memory, which makes it flush the
// request line and headers in a write of their own before the body —
// a second syscall per call, more than the copy costs.
func encodeFrame[T any](encode func([]byte, T) []byte, v T) []byte {
	scratch := wire.NewFrameBuf()
	defer scratch.Release()
	scratch.B = encode(scratch.B, v)
	return bytes.Clone(scratch.B)
}

var frameContentType = []string{wire.ContentType}

// attempt runs one call against base under the per-attempt deadline: on
// the endpoint's call stream when one is open, otherwise as an HTTP round
// trip whose answer is read as a stream's is (decodeAnswer), its codec
// told by its own Content-Type. Error responses carry the JSON envelope
// whatever the request's codec and surface as *APIError.
func (c *Client) attempt(ctx context.Context, base string, rt route, frame []byte, jsonOut any, fromFrame func([]byte) error) error {
	if rt.op != 0 {
		if cs := c.stream(base); cs != nil {
			return cs.call(ctx, c.opts.CallTimeout, rt.op, frame, jsonOut, fromFrame)
		}
	}
	if c.opts.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.CallTimeout)
		defer cancel()
	}
	var body io.Reader
	if rt.op != 0 && !rt.op.ByID() {
		body = bytes.NewReader(frame)
	}
	req, err := http.NewRequestWithContext(ctx, rt.method, base+rt.path, body)
	if err != nil {
		return fmt.Errorf("gridbwd: %w", err)
	}
	if body != nil {
		req.Header["Content-Type"] = frameContentType
	}
	hc := c.hc
	if rt.op != 0 && c.offer(base) {
		defer c.offered(base)
		req.Header["Connection"] = upgradeHeader
		req.Header["Upgrade"] = callProtocolHeader
		hc = c.uc
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("gridbwd: %w", err)
	}
	if resp.StatusCode == http.StatusSwitchingProtocols {
		return c.adopt(ctx, base, resp, jsonOut, fromFrame) // it owns the connection
	}
	defer resp.Body.Close()
	codec := wire.CodecJSON
	if strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentType) {
		codec = wire.CodecFrame
	}
	buf := wire.NewFrameBuf()
	defer buf.Release()
	if err := buf.ReadBody(resp.Body, resp.ContentLength); err != nil && resp.StatusCode < 300 {
		return fmt.Errorf("gridbwd: decode response: %w", err)
	}
	err = decodeAnswer(resp.StatusCode, codec, buf.B, jsonOut, fromFrame)
	if ae, ok := err.(*APIError); ok {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return err
}

// attemptJSON is one unretried attempt of a body-less JSON call — the
// probes that want the current truth of one endpoint.
func (c *Client) attemptJSON(ctx context.Context, base, method, path string, out any) error {
	return c.attempt(ctx, base, route{method: method, path: path}, nil, out, nil)
}

// Submit posts a reservation request and returns the daemon's decision.
// A rejection is a normal answer (Accepted == false), not an error. If
// req carries no idempotency key, one is generated, so the retry loop
// (and any caller-level retry of the returned error) can never book the
// same submission twice. The decision's human-readable Rate string is
// empty — the frame carries RateBps only.
func (c *Client) Submit(ctx context.Context, req wire.SubmitRequest) (wire.ReservationJSON, error) {
	ws, err := req.Wire()
	if err != nil {
		// A request that cannot be framed gets the answer the daemon gives the
		// same request in JSON.
		return wire.ReservationJSON{}, badRequest(err)
	}
	return c.SubmitWire(ctx, ws)
}

// SubmitWire is Submit for callers that already hold the wire record — the
// router forwards a same-shard submission without a detour through the
// JSON request shape.
func (c *Client) SubmitWire(ctx context.Context, ws wire.Submission) (wire.ReservationJSON, error) {
	if ws.IdempotencyKey == "" {
		ws.IdempotencyKey = NewIdempotencyKey()
	}
	if err := ws.Check(); err != nil {
		return wire.ReservationJSON{}, badRequest(err)
	}
	frame := encodeFrame(wire.AppendSubmitRequest, &ws)
	var out wire.ReservationJSON
	err := c.call(ctx, framed(wire.OpSubmit, 0), frame, &out, func(b []byte) (err error) {
		out, err = wire.DecodeSubmitResponse(b)
		return err
	})
	return out, err
}

// SubmitBatch posts many reservation requests decided in one pass and
// returns one result per input, in input order. Items missing an
// idempotency key get a generated one (on a copy — the caller's slice is
// not modified), so the retry loop re-sends the identical batch and the
// daemon answers already-decided items from its idempotency cache instead
// of booking them twice. An item that cannot be framed fails in its own
// slot, with the error the daemon gives it in a JSON batch, and the rest
// are sent (wire.SplitBatch).
func (c *Client) SubmitBatch(ctx context.Context, reqs []wire.SubmitRequest) ([]wire.BatchItemJSON, error) {
	out, subs := wire.SplitBatch(reqs)
	if len(subs) == 0 && len(reqs) > 0 {
		return out, nil
	}
	res, err := c.SubmitBatchWire(ctx, subs)
	if err == nil {
		err = wire.MergeBatch(out, res)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitBatchBinary is SubmitBatch under the name it had while SubmitBatch
// still spoke JSON; bench/drive.go is its last caller.
func (c *Client) SubmitBatchBinary(ctx context.Context, reqs []wire.SubmitRequest) ([]wire.BatchItemJSON, error) {
	return c.SubmitBatch(ctx, reqs)
}

// SubmitBatchWire is SubmitBatch for callers that already hold decoded
// wire records — the router re-shards incoming batches without a detour
// through the JSON request shape. Records missing an idempotency key get a
// generated one (subs is modified in place, so retries at any layer re-send
// the same keys).
func (c *Client) SubmitBatchWire(ctx context.Context, subs []wire.Submission) ([]wire.BatchItemJSON, error) {
	for i := range subs {
		if subs[i].IdempotencyKey == "" {
			subs[i].IdempotencyKey = NewIdempotencyKey()
		}
	}
	if err := checkAll(subs, (*wire.Submission).Check); err != nil {
		return nil, err
	}
	frame := encodeFrame(wire.AppendBatchRequest, subs)
	var out wire.BatchResponse
	err := c.call(ctx, framed(wire.OpBatch, 0), frame, &out, func(b []byte) (err error) {
		out.Results, err = wire.DecodeBatchResponse(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(out.Results) != len(subs) {
		return nil, fmt.Errorf("gridbwd: batch answered %d results for %d requests", len(out.Results), len(subs))
	}
	return out.Results, nil
}

// Get looks up one reservation.
func (c *Client) Get(ctx context.Context, id int) (wire.ReservationJSON, error) {
	return c.byID(ctx, wire.OpGet, id)
}

// Cancel revokes a live reservation and returns its final record.
// Cancels are not retried blindly: a cancel is idempotent on the daemon
// (a second cancel answers 409 with the final record), so retries are
// safe, and the usual transient classification applies.
func (c *Client) Cancel(ctx context.Context, id int) (wire.ReservationJSON, error) {
	return c.byID(ctx, wire.OpCancel, id)
}

// byID is a lookup or cancel: a body-less request over HTTP, or an id
// frame on the call stream. A decision frame answers the frame, and the
// offer too when the server could not take the connection over; it
// carries no human rate string, filled in here as the JSON face spells it.
func (c *Client) byID(ctx context.Context, op wire.Op, id int) (wire.ReservationJSON, error) {
	var out wire.ReservationJSON
	err := c.call(ctx, framed(op, id), wire.AppendIDFrame(nil, id), &out, func(b []byte) (err error) {
		out, err = wire.DecodeSubmitResponse(b)
		out.SpellRate()
		return err
	})
	return out, err
}

// holdCall posts one list-shaped hold call and checks the answer lines up
// with the list. The call retries and fails over like any write; hold
// keys make the retries idempotent on the daemon.
func holdCall[Q, A any](ctx context.Context, c *Client, op wire.Op, holds []Q, check func(*Q) error,
	encode func([]byte, []Q) []byte, decode func([]byte) ([]A, error)) ([]A, error) {
	if err := checkAll(holds, check); err != nil {
		return nil, err
	}
	var out wire.HoldResultsJSON[A]
	err := c.call(ctx, framed(op, 0), encodeFrame(encode, holds), &out, func(b []byte) (err error) {
		out.Results, err = decode(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(out.Results) != len(holds) {
		return nil, fmt.Errorf("gridbwd: %s answered %d results for %d holds", op, len(out.Results), len(holds))
	}
	return out.Results, nil
}

// checkAll refuses, before encoding, a list with an item a frame cannot
// carry (wire's per-shape check): a frame would cut its key, or wrap its
// point, into another one.
func checkAll[T any](items []T, check func(*T) error) error {
	for i := range items {
		if err := check(&items[i]); err != nil {
			return badRequest(err)
		}
	}
	return nil
}

// badRequest is the 400 the daemon gives a request a frame cannot carry.
func badRequest(err error) *APIError {
	return &APIError{StatusCode: http.StatusBadRequest, Message: err.Error()}
}

// HoldReserve places one side each of a list of cross-shard two-phase
// admissions, decided in list order; one answer per hold. An answer with
// Code set is that item's own failure, not the call's.
func (c *Client) HoldReserve(ctx context.Context, reqs []wire.HoldReserveJSON) ([]wire.HoldReserveResponseJSON, error) {
	return holdCall(ctx, c, wire.OpReserve, reqs, (*wire.HoldReserveJSON).Check, wire.AppendHoldReserveList, wire.DecodeHoldReserveResults)
}

// HoldConfirm commits held reservations. A non-zero epoch on a ref must
// match the shard's current fencing epoch (the one HoldReserve answered);
// a 403 after the built-in failover retries means the shard changed
// lineage mid-hold — refresh the epoch via Replication and confirm once
// more, or abort both sides. A per-item 409 is a hold that rolled back
// before the commit.
func (c *Client) HoldConfirm(ctx context.Context, refs []wire.HoldRefJSON) ([]wire.HoldStateJSON, error) {
	return holdCall(ctx, c, wire.OpConfirm, refs, (*wire.HoldRefJSON).Check, wire.AppendHoldRefList, wire.DecodeHoldStates)
}

// HoldAbort rolls holds back, by key or (the cancel path of a cross-shard
// reservation) by the ingress-side local request ID, whose answer names
// the hold key and the peer point so the caller can abort the other side
// too. Always safe: aborting an unknown or already-aborted key is a
// recorded no-op on the daemon.
func (c *Client) HoldAbort(ctx context.Context, refs []wire.HoldRefJSON) ([]wire.HoldStateJSON, error) {
	return holdCall(ctx, c, wire.OpAbort, refs, (*wire.HoldRefJSON).Check, wire.AppendHoldRefList, wire.DecodeHoldStates)
}

// Status fetches the live control-plane view.
func (c *Client) Status(ctx context.Context) (wire.StatusJSON, error) {
	var out wire.StatusJSON
	err := c.do(ctx, http.MethodGet, "/v1/status", &out)
	return out, err
}

// Health fetches the readiness probe. A draining daemon answers 503,
// surfaced as an *APIError. Health is never retried — a probe wants the
// current truth, not an eventually-friendly answer.
func (c *Client) Health(ctx context.Context) (wire.HealthJSON, error) {
	var out wire.HealthJSON
	err := c.attemptJSON(ctx, c.Endpoint(), http.MethodGet, "/v1/healthz", &out)
	return out, err
}

// Replication fetches the daemon's replication view: role, fencing
// epoch, cursor, and lag. Works on primaries and followers alike.
func (c *Client) Replication(ctx context.Context) (cluster.ReplicationStatus, error) {
	var out cluster.ReplicationStatus
	err := c.do(ctx, http.MethodGet, "/v1/replication/status", &out)
	return out, err
}

// Promote turns a following daemon into a primary. Idempotent: promoting
// a daemon that is already primary answers its current role and epoch. A
// daemon that has peers holds its vote round first, and one that is denied
// a majority answers 409: an *APIError (IsConflict) whose message carries
// the refusal — votes granted and needed, and who said no. Not retried —
// failover tooling wants to observe each attempt.
func (c *Client) Promote(ctx context.Context) (cluster.PromoteJSON, error) {
	var out cluster.PromoteJSON
	err := c.attemptJSON(ctx, c.Endpoint(), http.MethodPost, "/v1/replication/promote", &out)
	return out, err
}

// Metrics fetches the metrics counters in their JSON form.
func (c *Client) Metrics(ctx context.Context) (wire.MetricsJSON, error) {
	var out wire.MetricsJSON
	err := c.do(ctx, http.MethodGet, "/v1/metricsz", &out)
	return out, err
}

// Metricsz fetches the Prometheus-format metrics page verbatim. The
// per-attempt deadline applies to the whole exchange including the body
// read, so a stalled scrape (slow-loris daemon, wedged proxy) returns
// an error instead of hanging the poller.
func (c *Client) Metricsz(ctx context.Context) (string, error) {
	if c.opts.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.CallTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Endpoint()+"/v1/metricsz", nil)
	if err != nil {
		return "", fmt.Errorf("gridbwd: %w", err)
	}
	// The daemon negotiates the metrics encoding; ask for the text form.
	req.Header.Set("Accept", "text/plain")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("gridbwd: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: resp.Status}
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("gridbwd: %w", err)
	}
	return string(blob), nil
}
