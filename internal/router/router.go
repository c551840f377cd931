// Package router is the stateless horizontal scale-out tier of gridbwd:
// it consistent-hashes (ingress, egress) access-point pairs onto a static
// ring of shard groups and proxies the client-facing API onto whichever
// shard owns the pair.
//
// A pair whose two points hash to one shard is proxied straight through —
// single submits, cancels, lookups, and whole batch slices — with the
// shard's local request IDs namespaced into client-visible IDs (visible =
// local×N + shard). Submits and batches arrive as JSON or in the frames of
// internal/wire and are answered in kind; toward the shards every
// submission and every hold list is a frame. A pair whose points
// land on different shards cannot be admitted by either one's two-sided
// pipeline; the router drives the wire form of the two-phase protocol
// that internal/distributed proved under fault injection: RESERVE on the
// ingress owner (which takes the one-sided admission step and proposes a
// grant), RESERVE on the egress owner (authoritative check of the
// proposal), then CONFIRM on both on dual success or ABORT on any
// failure. The hold calls are list-shaped and the cross-shard items of one
// client call travel together, one call per shard per protocol step (see
// crossShard). Shard groups keep independent service clocks, so the proposed
// window crosses shards as offsets from the proposing shard's clock (see
// wire.HoldReserveJSON.RelTimes). Unconfirmed holds roll back on their
// TTL, so a router crash between the two RESERVEs or CONFIRMs can delay
// capacity reuse but never leak it.
//
// A call's cross-shard items run in one pooled scratch (crossCall), and each
// wave's shard calls carry their deadline themselves rather than in a
// context, so a wave allocates no context, timer, closure or list: a call
// allocates per call, and its shards per hold, not per item, side and wave.
//
// Each shard is addressed through a failover-aware server/client over its
// group members, so primary rediscovery, fencing-epoch preference, and
// the probe-cooldown negative cache all apply per shard, and the shard
// calls ride that client's call stream to each member. The router serves
// the same stream to its own callers through internal/callplane, as the
// daemon does: submit, batch, get and cancel are one function each (Call),
// whichever carrier brought the call. The router itself keeps no durable
// state: any instance with the same static configuration routes
// identically.
package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gridbw/internal/callplane"
	"gridbw/internal/cluster"
	"gridbw/internal/metrics"
	"gridbw/internal/server/client"
	"gridbw/internal/trace"
	"gridbw/internal/wire"
)

const (
	// defaultHoldTTL mirrors the shard-side default: long enough to cover
	// two RESERVE round trips plus failover rediscovery, short enough that
	// a crashed router frees capacity quickly.
	defaultHoldTTL  = 5 * time.Second
	defaultMaxBatch = 1024
)

// ShardConfig names one shard group and its member endpoints (primary
// first by convention; the client rediscovers the actual primary).
type ShardConfig struct {
	Name      string
	Endpoints []string
}

// Config describes a router. Zero fields take the documented defaults.
type Config struct {
	// Shards is the static ring membership, in a fixed order — the order
	// defines each shard's index for ID namespacing, so every router
	// instance (and the offline checker) must list shards identically.
	Shards []ShardConfig
	// Seed and Replicas parameterize the consistent-hash ring; all
	// instances must agree on them.
	Seed     uint64
	Replicas int
	// HoldTTL bounds unconfirmed cross-shard holds, and a quarter of it
	// each step of the protocol that places and commits them. Default 5s.
	HoldTTL time.Duration
	// MaxBatch bounds one POST /v1/batch. Default 1024.
	MaxBatch int
	// Client tunes the per-shard daemon clients.
	Client client.Options
	// HTTPClient overrides the transport shared by the shard clients; nil
	// uses one tuned for many concurrent proxied connections.
	HTTPClient *http.Client
}

// shard is one ring member: its failover-aware client plus metrics.
type shard struct {
	name string
	c    *client.Client
	met  *shardMetrics
}

// Router is the HTTP tier. Construct with New, serve Handler.
type Router struct {
	ring     *Ring
	shards   []*shard
	holdTTL  time.Duration
	maxBatch int
	met      *routerMetrics
	// streams is the call streams this router serves; Close ends them.
	streams callplane.Streams
	// calls pools the scratch of the calls the router routes (crossCall).
	calls sync.Pool
}

// New builds a router over the configured shard groups.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	names := make([]string, len(cfg.Shards))
	for i, sc := range cfg.Shards {
		if len(sc.Endpoints) == 0 {
			return nil, fmt.Errorf("router: shard %q has no endpoints", sc.Name)
		}
		names[i] = sc.Name
	}
	ring, err := NewRing(names, cfg.Seed, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	rt := &Router{
		ring:     ring,
		holdTTL:  cfg.HoldTTL,
		maxBatch: cfg.MaxBatch,
		met:      newRouterMetrics(names),
	}
	if rt.holdTTL <= 0 {
		rt.holdTTL = defaultHoldTTL
	}
	if rt.maxBatch <= 0 {
		rt.maxBatch = defaultMaxBatch
	}
	rt.calls.New = rt.makeCrossCall
	for i, sc := range cfg.Shards {
		rt.shards = append(rt.shards, &shard{
			name: sc.Name,
			c:    client.NewWithOptions(sc.Endpoints[0], hc, cfg.Client, sc.Endpoints[1:]...),
			met:  rt.met.shards[i],
		})
	}
	return rt, nil
}

// Ring exposes the routing table (tests and tooling).
func (rt *Router) Ring() *Ring { return rt.ring }

// visibleID namespaces a shard-local request ID into the client-visible
// space: visible = local×N + shard, so shard = visible mod N.
func (rt *Router) visibleID(local, shardIdx int) int {
	return local*rt.ring.NumShards() + shardIdx
}

func (rt *Router) splitID(visible int) (local, shardIdx int) {
	n := rt.ring.NumShards()
	return visible / n, visible % n
}

// Handler returns the router's HTTP surface: the op table's routes of the
// four ops Call answers (callplane.CallRoute, as the daemon's: framed, or
// through the op's JSON codec), health, and the router's own metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	face := callplane.JSONFace{MaxBatch: rt.maxBatch, BareBatch: true}
	for _, op := range [...]wire.Op{wire.OpSubmit, wire.OpBatch, wire.OpGet, wire.OpCancel} {
		mux.Handle(op.Pattern(), callplane.CallRoute(&rt.streams, rt.Call, op, face))
	}
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// Close ends the call streams the router serves and the ones its shard
// clients hold. The HTTP server does not: it forgets a connection once it
// is taken over.
func (rt *Router) Close() error {
	rt.streams.Close()
	for _, sh := range rt.shards {
		sh.c.Close()
	}
	return nil
}

// Call answers one call, whichever face or carrier brought it: decode,
// route, encode.
// The hold calls are the shards' business; the router answers them as its
// mux answers the paths it does not serve.
// The shard calls drop ctx's cancellation: a forward shares its shard's
// call stream with other callers', and a cancelled context fails the whole
// stream. The client's call timeout and stream watchdog bound them instead.
func (rt *Router) Call(ctx context.Context, c *callplane.Call) callplane.Reply {
	ctx = context.WithoutCancel(ctx)
	var items []wire.BatchItemJSON
	status := http.StatusOK
	switch c.Op {
	case wire.OpSubmit:
		ws, err := c.DecodeSubmit()
		if err != nil {
			return callplane.ErrorReply(http.StatusBadRequest, err)
		}
		res, err := rt.submit(ctx, ws)
		if err != nil {
			return upstreamReply(err)
		}
		if res.Accepted {
			status = http.StatusCreated
		}
		items = []wire.BatchItemJSON{{Reservation: &res}}
	case wire.OpBatch:
		subs, err := wire.DecodeBatchRequest(c.Buf.B, rt.maxBatch)
		if err != nil {
			return callplane.ErrorReply(http.StatusBadRequest, err)
		}
		items = rt.batch(ctx, subs)
	case wire.OpGet, wire.OpCancel:
		visible, err := wire.DecodeIDFrame(c.Buf.B)
		if err != nil {
			return callplane.ErrorReply(http.StatusBadRequest, err)
		}
		find := rt.get
		if c.Op == wire.OpCancel {
			find = rt.cancel
		}
		res, err := find(ctx, visible)
		if err != nil {
			return upstreamReply(err)
		}
		items = []wire.BatchItemJSON{{Reservation: &res}}
	default:
		return callplane.ErrorReply(http.StatusNotFound, errors.New("404 page not found"))
	}
	c.Buf.B = wire.AppendBatchItems(c.Buf.B[:0], items)
	return callplane.Reply{Status: status}
}

// upstreamReply relays a shard-side failure: API answers pass through
// with their status (and Retry-After hint), transport-level failures
// become 502 — the shard may be mid-failover.
func upstreamReply(err error) callplane.Reply {
	var ae *client.APIError
	if errors.As(err, &ae) {
		rep := callplane.Reply{Status: ae.StatusCode, JSON: wire.ErrorJSON{Error: ae.Message}}
		if ae.RetryAfter > 0 {
			rep.RetryAfter = int((ae.RetryAfter + time.Second - 1) / time.Second)
		}
		return rep
	}
	return callplane.ErrorReply(http.StatusBadGateway, err)
}

// submit routes one submission: a same-shard record travels on to its
// owner as a frame, a cross-shard one through the hold protocol.
func (rt *Router) submit(ctx context.Context, ws wire.Submission) (wire.ReservationJSON, error) {
	inIdx, egIdx := rt.ring.OwnerIn(ws.From), rt.ring.OwnerEg(ws.To)
	if inIdx != egIdx {
		cc := rt.newCrossCall(ctx)
		cc.add(ws, inIdx, egIdx, 0)
		cc.crossShard()
		res, err := cc.items[0].res, cc.items[0].err
		cc.release()
		return res, err
	}
	sh := rt.shards[inIdx]
	t0 := time.Now()
	res, err := sh.c.SubmitWire(ctx, ws)
	sh.met.observe(time.Since(t0), err)
	res.ID = rt.visibleID(res.ID, inIdx)
	return res, err
}

// The two sides of a cross-shard item, indexing crossItem's arrays.
const (
	ingress = iota
	egress
)

// crossItem is one cross-shard submission on its way through crossShard,
// which settles it with an answer (res) or a shard-side failure (err).
type crossItem struct {
	ws    wire.Submission
	slot  int    // the item's place in its client call
	owner [2]int // owning shard index, per side
	hold  string
	// resv is each side's RESERVE answer, cerr its CONFIRM failure, and
	// abort marks the sides that may still book capacity to roll back.
	resv    [2]wire.HoldReserveResponseJSON
	cerr    [2]error
	abort   [2]bool
	settled bool
	res     wire.ReservationJSON
	err     error
}

// crossID is the item's client-visible ID: the ingress owner's local one,
// namespaced.
func (rt *Router) crossID(it *crossItem) int {
	return rt.visibleID(it.resv[ingress].ID, it.owner[ingress])
}

// reject settles the item as a domain refusal (HTTP 200, not an error).
func (rt *Router) reject(it *crossItem, reason string) {
	it.settled = true
	it.res = wire.ReservationJSON{
		ID: rt.crossID(it), Accepted: false, State: wire.StateRejected,
		Reason: reason, Routed: wire.RoutedCrossShard,
	}
}

// fail settles the item as a shard-side failure for the caller to relay.
func (it *crossItem) fail(err error) {
	it.settled = true
	it.err = err
}

// side is one half of a cross-shard item: its hold on one owner.
type side struct {
	it    *crossItem
	which int // ingress or egress
}

// crossCall is one client call on its way through the router, and the
// scratch it runs in: its cross-shard items, and per shard the sides a wave
// hands that shard, the hold lists it sends and the answers they decode
// into, and a batch's same-shard slice. Routers pool them (Router.calls),
// the way the daemon pools its batch scratch, so once the pool is warm a
// call allocates none of this, whatever its items, sides and waves.
type crossCall struct {
	rt *Router
	// ctx is the client call's context without its cancellation
	// (Router.Call), which every shard call runs under; the waves' deadlines
	// bound the hold calls (crossShard).
	ctx    context.Context
	items  []crossItem
	shards []shardCall
	// The current wave: the side a RESERVE wave places, the deadline every
	// shard's call is held to, and step, its work on one shard. run[i] runs
	// step on shard i on a goroutine of its own and marks it done on wg;
	// each is bound once, when the pool makes the call.
	which    int
	deadline time.Time
	step     func(cc *crossCall, shard int)
	run      []func()
	wg       sync.WaitGroup
	// A batch: its submissions and the answers they get, and fwd[i], which
	// forwards shard i's same-shard slice on a goroutine, marked on fwg.
	subs []wire.Submission
	out  []wire.BatchItemJSON
	fwd  []func()
	fwg  sync.WaitGroup
	// rollback marks a call with sides to abort; abort runs the aborts
	// detached, and then returns the call to the pool.
	rollback bool
	abort    func()
}

// shardCall is one shard's scratch in a crossCall.
type shardCall struct {
	sides []side
	reqs  []wire.HoldReserveJSON
	resv  []wire.HoldReserveResponseJSON
	refs  []wire.HoldRefJSON
	sts   []wire.HoldStateJSON
	// idxs are the batch slots of the same-shard items this shard owns, and
	// subs the slice forwarded to it.
	idxs []int
	subs []wire.Submission
}

// newCrossCall takes a crossCall from the pool for one client call.
func (rt *Router) newCrossCall(ctx context.Context) *crossCall {
	cc := rt.calls.Get().(*crossCall)
	cc.ctx = ctx
	return cc
}

// makeCrossCall is the pool's constructor: it sizes the scratch to the ring
// and binds the per-shard goroutine bodies once.
func (rt *Router) makeCrossCall() any {
	n := len(rt.shards)
	cc := &crossCall{rt: rt, shards: make([]shardCall, n), run: make([]func(), n), fwd: make([]func(), n)}
	for i := range n {
		cc.run[i] = func() {
			defer cc.wg.Done()
			cc.step(cc, i)
		}
		cc.fwd[i] = func() {
			defer cc.fwg.Done()
			cc.forward(i)
		}
	}
	cc.abort = func() {
		cc.abortSides()
		cc.put()
	}
	return cc
}

// add appends one cross-shard submission, the one at slot of its call.
func (cc *crossCall) add(ws wire.Submission, inIdx, egIdx, slot int) {
	cc.items = append(cc.items, crossItem{ws: ws, slot: slot, owner: [2]int{inIdx, egIdx}})
}

// release ends the caller's use of the call once it has read the items'
// answers: the call goes back to the pool, or first rolls back the sides
// crossShard left booked, on a goroutine of its own.
func (cc *crossCall) release() {
	if cc.rollback {
		go cc.abort()
		return
	}
	cc.put()
}

// put clears the call — it keeps no submission, key or answer alive in
// the pool — and returns it there.
func (cc *crossCall) put() {
	clear(cc.items)
	cc.items = cc.items[:0]
	for i := range cc.shards {
		sc := &cc.shards[i]
		clear(sc.sides)
		clear(sc.reqs)
		clear(sc.resv)
		clear(sc.refs)
		clear(sc.sts)
		clear(sc.subs)
		sc.sides, sc.reqs, sc.resv, sc.refs, sc.sts = sc.sides[:0], sc.reqs[:0], sc.resv[:0], sc.refs[:0], sc.sts[:0]
		sc.idxs, sc.subs = sc.idxs[:0], sc.subs[:0]
	}
	cc.ctx, cc.step, cc.subs, cc.out = nil, nil, nil, nil
	cc.rollback = false
	cc.rt.calls.Put(cc)
}

// group hands each shard the given side of every item still in the
// protocol that it owns, in request order: behind the sides it already
// holds when add is set, in their place otherwise.
func (cc *crossCall) group(which int, add bool) {
	if !add {
		for i := range cc.shards {
			cc.shards[i].sides = cc.shards[i].sides[:0]
		}
	}
	for k := range cc.items {
		if it := &cc.items[k]; !it.settled {
			sc := &cc.shards[it.owner[which]]
			sc.sides = append(sc.sides, side{it, which})
		}
	}
}

// perShard runs step once per shard the current grouping hands any sides,
// all shards in parallel, and returns once every one has. A step touches
// only its own shard's sides. The last shard runs on the caller's
// goroutine: both RESERVE steps of a single submit have one shard each,
// and need no goroutine at all.
func (cc *crossCall) perShard(step func(cc *crossCall, shard int)) {
	cc.step = step
	if last := fanOut(len(cc.shards), func(i int) bool { return len(cc.shards[i].sides) > 0 }, cc.run, &cc.wg); last >= 0 {
		step(cc, last)
	}
	cc.wg.Wait()
}

// fanOut starts run[i], counted on wg, for every shard i that busy names,
// but the last: that one it returns (−1 when there is none), for the
// caller to run on its own goroutine.
func fanOut(n int, busy func(int) bool, run []func(), wg *sync.WaitGroup) int {
	last := -1
	for i := range n {
		if !busy(i) {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go run[last]()
		}
		last = i
	}
	return last
}

// itemError lifts the per-item failure of a list-shaped hold call back
// into the error a one-item call would have returned.
func itemError(code int, msg string) error {
	return &client.APIError{StatusCode: code, Message: msg}
}

// crossShard drives the call's cross-shard items (a single submit is the
// one-item case) through the two-phase hold protocol in three waves, each
// one list-shaped call per shard involved: RESERVE on the ingress owners,
// RESERVE on the egress owners carrying the grants the first wave
// proposed, CONFIRM on every owner carrying its ingress-side and
// egress-side keys alike. Lists keep request order, so a shard decides its
// items in the order one-at-a-time submission would. Sides that booked but
// did not commit as a pair are marked for rollback: release aborts them,
// detached, one call per shard. With S shards that is at most 3·S hold
// trips per client call instead of four per item. A shard that does not
// answer within a wave's deadline costs the items that touch it, not the
// rest of the call.
//
// Each wave's shard calls are held to a deadline a quarter of the hold TTL
// after the wave starts: a shard that stops answering fails its own items
// (for the caller to retry) after that long, and the three waves still
// reach CONFIRM with every other shard's first holds live. The deadline
// rides the calls themselves (client.HoldReserve and its siblings): a
// call stream's watchdog enforces it and ends a stream that misses it, as a
// lapsed context ends it, so a wave costs no context and no timer. The
// client call's own cancellation does not reach the hold calls (Router.Call
// drops it): a caller that hangs up mid-protocol leaves the waves to finish
// within their deadlines, and a retry under its key finds the holds they
// placed.
func (cc *crossCall) crossShard() {
	rt, t0 := cc.rt, time.Now()
	for k := range cc.items {
		it := &cc.items[k]
		ws := &it.ws
		// Relative and absolute times cannot mix across shards: RelTimes
		// marks the whole window as offsets from the deciding shard's clock,
		// and an absolute instant from the client's view of one shard means
		// nothing on the other.
		if (ws.RelNotBefore && !ws.RelDeadline && ws.Deadline != 0) ||
			(!ws.RelNotBefore && ws.RelDeadline && ws.NotBefore != 0) {
			it.fail(itemError(http.StatusBadRequest, "cross-shard submission mixes relative and absolute times"))
			continue
		}
		if ws.IdempotencyKey == "" {
			ws.IdempotencyKey = client.NewIdempotencyKey()
		}
		// The hold key derives from the idempotency key, so a client retry
		// of the whole submission converges on the same pair of holds
		// instead of booking fresh ones. A key within a prefix of the bound
		// has no hold key, and is refused here rather than costing its
		// neighbours their shard call.
		it.hold = "x-" + ws.IdempotencyKey
		if err := wire.CheckKey("cross-shard hold key", it.hold); err != nil {
			it.fail(itemError(http.StatusBadRequest, err.Error()))
		}
	}

	// Wave 1: each ingress owner takes the one-sided step and proposes.
	// Wave 2: each egress owner checks the proposals.
	cc.reserve(ingress)
	cc.reserve(egress)
	// Wave 3: every owner commits, all at once, its ingress sides and then
	// its egress sides in one list — abort compensates a confirmed side, so
	// committing the ingress side first buys nothing.
	cc.group(ingress, false)
	cc.group(egress, true)
	cc.wave((*crossCall).confirmOn)

	for k := range cc.items {
		it := &cc.items[k]
		if !it.settled {
			err := it.cerr[ingress]
			if err == nil {
				err = it.cerr[egress]
			}
			rin := &it.resv[ingress]
			switch {
			case err == nil:
				it.res = wire.ReservationJSON{
					ID: rt.crossID(it), Accepted: true, State: wire.StateActive,
					RateBps: rin.RateBps, SigmaS: rin.SigmaS, TauS: rin.TauS,
					Routed: wire.RoutedCrossShard,
				}
				if rin.SigmaS > rin.NowS {
					it.res.State = wire.StateBooked
				}
			case client.IsConflict(err):
				// A hold rolled back (TTL lapse, or a racing cancel) before
				// the commit: a clean rejection, not a shard failure. The
				// abort is the compensating release of a side that did commit.
				it.abort = [2]bool{true, true}
				rt.reject(it, "hold expired before confirm")
			default:
				it.abort = [2]bool{true, true}
				it.fail(err)
			}
		}
		rt.met.observeCross(time.Since(t0), it.err, it.err == nil && it.res.Accepted)
		cc.rollback = cc.rollback || it.abort[ingress] || it.abort[egress]
	}
}

// reserve is the RESERVE wave of one side of the items still in the
// protocol.
func (cc *crossCall) reserve(which int) {
	cc.group(which, false)
	cc.which = which
	cc.wave((*crossCall).reserveOn)
}

// wave runs step on every shard the current grouping hands sides, under
// the wave's own deadline.
func (cc *crossCall) wave(step func(cc *crossCall, shard int)) {
	cc.deadline = time.Now().Add(cc.rt.holdTTL / 4)
	cc.perShard(step)
}

// holdRequest is the RESERVE of one side of an item. The ingress side
// carries the submission; the egress side carries the grant the ingress
// owner proposed, its window as offsets from the ingress shard's NowS,
// which the egress shard resolves against its own clock.
func (rt *Router) holdRequest(it *crossItem, which int) wire.HoldReserveJSON {
	ws := &it.ws
	if which == ingress {
		return wire.HoldReserveJSON{
			Hold: it.hold, Side: trace.HoldSideIngress,
			Point: ws.From, PeerPoint: ws.To,
			TTLS: rt.holdTTL.Seconds(), RelTimes: ws.RelNotBefore || ws.RelDeadline,
			VolumeBytes: float64(ws.Volume), MaxRateBps: float64(ws.MaxRate),
			NotBeforeS: float64(ws.NotBefore), DeadlineS: float64(ws.Deadline),
		}
	}
	rin := &it.resv[ingress]
	return wire.HoldReserveJSON{
		Hold: it.hold, Side: trace.HoldSideEgress,
		Point: ws.To, PeerPoint: ws.From,
		TTLS: rt.holdTTL.Seconds(), RelTimes: true,
		RateBps: rin.RateBps,
		SigmaS:  rin.SigmaS - rin.NowS, TauS: rin.TauS - rin.NowS,
		VolumeBytes: float64(ws.Volume), MaxRateBps: float64(ws.MaxRate),
	}
}

// reserveOn is a RESERVE wave's step on shard i: one list of the current
// side's holds, each answer settling or carrying its item.
func (cc *crossCall) reserveOn(i int) {
	rt, sc, which := cc.rt, &cc.shards[i], cc.which
	sc.reqs, sc.resv = sc.reqs[:0], sc.resv[:0]
	for _, sd := range sc.sides {
		sc.reqs = append(sc.reqs, rt.holdRequest(sd.it, which))
		sc.resv = append(sc.resv, wire.HoldReserveResponseJSON{Hold: sd.it.hold})
	}
	resps, err := rt.shards[i].reserve(cc.ctx, cc.deadline, sc.reqs, sc.resv)
	if err == nil {
		sc.resv = resps
	}
	for j, sd := range sc.sides {
		it := sd.it
		switch {
		case err != nil:
			// The call may have landed all the same, and on a retry
			// of an acknowledged pair the other side is confirmed:
			// roll back both, or the pair is cancelled on one side.
			it.abort = [2]bool{true, true}
			it.fail(err)
		case resps[j].Code != 0:
			it.fail(itemError(resps[j].Code, resps[j].Error))
		case !resps[j].Held:
			// A refused hold books nothing on this side.
			it.resv[which] = resps[j]
			rt.reject(it, resps[j].Reason)
		default:
			it.resv[which] = resps[j]
		}
		if it.settled && which == egress {
			it.abort[ingress] = true // proposed and booked, never to commit
		}
	}
}

// confirmOn is the CONFIRM wave's step on shard i: one list of every hold
// the shard placed for the items still in the protocol.
func (cc *crossCall) confirmOn(i int) {
	sc := &cc.shards[i]
	sc.refs, sc.sts = sc.refs[:0], sc.sts[:0]
	for _, sd := range sc.sides {
		sc.refs = append(sc.refs, wire.HoldRefJSON{Hold: sd.it.hold, Epoch: sd.it.resv[sd.which].Epoch})
		sc.sts = append(sc.sts, wire.HoldStateJSON{Hold: sd.it.hold})
	}
	sts, err := cc.rt.shards[i].confirm(cc.ctx, cc.deadline, sc.refs, sc.sts)
	if err == nil {
		sc.sts = sts
	}
	for j, sd := range sc.sides {
		sd.it.cerr[sd.which] = err
		if err == nil && sts[j].Code != 0 {
			sd.it.cerr[sd.which] = itemError(sts[j].Code, sts[j].Error)
		}
	}
}

// abortSides converges the sides crossShard marked to aborted, one call per
// shard, best-effort and detached from the client call (its caller may be
// gone). Failures are tolerable: the shard-side TTL is the backstop that
// actually guarantees no capacity leaks.
func (cc *crossCall) abortSides() {
	for i := range cc.shards {
		cc.shards[i].sides = cc.shards[i].sides[:0]
	}
	for k := range cc.items {
		it := &cc.items[k]
		for which, on := range it.abort {
			if on {
				sc := &cc.shards[it.owner[which]]
				sc.sides = append(sc.sides, side{it, which})
			}
		}
	}
	cc.deadline = time.Now().Add(abortTimeout)
	cc.perShard((*crossCall).abortOn)
}

// abortTimeout bounds the detached aborts of a call's rolled-back sides.
const abortTimeout = 3 * time.Second

// abortOn is abortSides' step on shard i.
func (cc *crossCall) abortOn(i int) {
	sc := &cc.shards[i]
	sc.refs, sc.sts = sc.refs[:0], sc.sts[:0]
	for _, sd := range sc.sides {
		sc.refs = append(sc.refs, wire.HoldRefJSON{Hold: sd.it.hold})
		sc.sts = append(sc.sts, wire.HoldStateJSON{Hold: sd.it.hold})
	}
	_, _ = cc.rt.shards[i].abort(cc.ctx, cc.deadline, sc.refs, sc.sts)
}

func (sh *shard) reserve(ctx context.Context, deadline time.Time, reqs []wire.HoldReserveJSON, into []wire.HoldReserveResponseJSON) ([]wire.HoldReserveResponseJSON, error) {
	t0 := time.Now()
	resps, err := sh.c.HoldReserve(ctx, deadline, reqs, into)
	sh.met.observeHold(wire.OpReserve, len(reqs), time.Since(t0), err)
	return resps, err
}

// confirm commits one shard's share of a wave, riding out a failover
// mid-hold: a 403 after the client's built-in rediscovery means the
// lineage changed (a reserve-time epoch is fenced) — refresh the epoch
// from the new primary and present it once. The promoted follower replayed
// the holds from the WAL, so the confirm lands on real state.
func (sh *shard) confirm(ctx context.Context, deadline time.Time, refs []wire.HoldRefJSON, into []wire.HoldStateJSON) ([]wire.HoldStateJSON, error) {
	t0 := time.Now()
	sts, err := sh.c.HoldConfirm(ctx, deadline, refs, into)
	if err != nil && client.IsReadOnly(err) {
		if rs, rerr := sh.replication(ctx, deadline); rerr == nil && rs.Role == "primary" {
			stale := false
			for j := range refs {
				stale = stale || refs[j].Epoch != rs.Epoch
				refs[j].Epoch = rs.Epoch
			}
			if stale {
				sts, err = sh.c.HoldConfirm(ctx, deadline, refs, into)
			}
		}
	}
	sh.met.observeHold(wire.OpConfirm, len(refs), time.Since(t0), err)
	return sts, err
}

// replication asks the shard for its replication status within deadline.
func (sh *shard) replication(ctx context.Context, deadline time.Time) (cluster.ReplicationStatus, error) {
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	return sh.c.Replication(ctx)
}

func (sh *shard) abort(ctx context.Context, deadline time.Time, refs []wire.HoldRefJSON, into []wire.HoldStateJSON) ([]wire.HoldStateJSON, error) {
	t0 := time.Now()
	sts, err := sh.c.HoldAbort(ctx, deadline, refs, into)
	sh.met.observeHold(wire.OpAbort, len(refs), time.Since(t0), err)
	return sts, err
}

// batch routes a batch and returns one result per submission, in request
// order.
func (rt *Router) batch(ctx context.Context, subs []wire.Submission) []wire.BatchItemJSON {
	// Missing keys are generated before the scatter so every retry layer
	// below re-sends the same ones.
	for i := range subs {
		if subs[i].IdempotencyKey == "" {
			subs[i].IdempotencyKey = client.NewIdempotencyKey()
		}
	}
	items := make([]wire.BatchItemJSON, len(subs))

	// Split by owning shard: same-shard slices forward as one wire batch
	// per shard, cross-shard items run the two-phase protocol together.
	// Every goroutine writes only its own result slots; gather is by index,
	// so the response preserves request order no matter the completion
	// order.
	cc := rt.newCrossCall(ctx)
	cc.subs, cc.out = subs, items
	groups := 0
	for i := range subs {
		inIdx, egIdx := rt.ring.OwnerIn(subs[i].From), rt.ring.OwnerEg(subs[i].To)
		if inIdx != egIdx {
			cc.add(subs[i], inIdx, egIdx, i)
			continue
		}
		sc := &cc.shards[inIdx]
		if len(sc.idxs) == 0 {
			groups++
		}
		sc.idxs = append(sc.idxs, i)
	}
	rt.met.observeBatch(groups, len(cc.items))
	// With no cross-shard items the caller only waits, so the last group
	// runs on its goroutine, as perShard's last shard does.
	last := fanOut(len(cc.shards), func(i int) bool { return len(cc.shards[i].idxs) > 0 }, cc.fwd, &cc.fwg)
	if last >= 0 && len(cc.items) == 0 {
		cc.forward(last)
	} else if last >= 0 {
		cc.fwg.Add(1)
		go cc.fwd[last]()
	}
	if len(cc.items) > 0 {
		cc.crossShard()
		// The answers outlive the pooled items: one array holds them all.
		res := make([]wire.ReservationJSON, len(cc.items))
		for k := range cc.items {
			if it := &cc.items[k]; it.err != nil {
				items[it.slot] = wire.BatchItemJSON{Error: it.err.Error()}
			} else {
				res[k] = it.res
				items[it.slot] = wire.BatchItemJSON{Reservation: &res[k]}
			}
		}
	}
	cc.fwg.Wait()
	cc.release()
	return items
}

// forward sends shard i's same-shard slice of a batch on as one wire batch
// and files each answer in its slot.
func (cc *crossCall) forward(i int) {
	sh, sc := cc.rt.shards[i], &cc.shards[i]
	sc.subs = sc.subs[:0]
	for _, k := range sc.idxs {
		sc.subs = append(sc.subs, cc.subs[k])
	}
	t0 := time.Now()
	res, err := sh.c.SubmitBatchWire(cc.ctx, sc.subs)
	sh.met.observe(time.Since(t0), err)
	if err != nil {
		msg := err.Error()
		for _, k := range sc.idxs {
			cc.out[k] = wire.BatchItemJSON{Error: msg}
		}
		return
	}
	for j, k := range sc.idxs {
		it := res[j]
		if it.Reservation != nil {
			it.Reservation.ID = cc.rt.visibleID(it.Reservation.ID, i)
		}
		cc.out[k] = it
	}
}

// get looks a visible ID up on its owning shard.
func (rt *Router) get(ctx context.Context, visible int) (wire.ReservationJSON, error) {
	local, shardIdx := rt.splitID(visible)
	sh := rt.shards[shardIdx]
	t0 := time.Now()
	res, err := sh.c.Get(ctx, local)
	sh.met.observe(time.Since(t0), err)
	res.ID = visible
	return res, err
}

// cancel revokes by visible ID. A same-shard reservation cancels
// straight through; when the owning shard answers 404 the ID may instead
// back the ingress side of a cross-shard hold — resolved by ID into an
// abort on both owners.
func (rt *Router) cancel(ctx context.Context, visible int) (wire.ReservationJSON, error) {
	local, shardIdx := rt.splitID(visible)
	sh := rt.shards[shardIdx]
	t0 := time.Now()
	res, err := sh.c.Cancel(ctx, local)
	sh.met.observe(time.Since(t0), err)
	if err == nil {
		res.ID = visible
		return res, nil
	}
	if !client.IsNotFound(err) {
		return res, err
	}
	sts, aerr := sh.abort(ctx, time.Time{}, []wire.HoldRefJSON{{ID: &local}}, nil)
	if aerr == nil && sts[0].Code != 0 {
		aerr = itemError(sts[0].Code, sts[0].Error)
	}
	if aerr != nil {
		if client.IsNotFound(aerr) {
			aerr = err // the original 404: nothing here at all
		}
		return res, aerr
	}
	// The ID backed an ingress-side hold on shardIdx; the answer names the
	// egress point, whose owner holds the other half.
	st := sts[0]
	peer := rt.shards[rt.ring.OwnerEg(st.PeerPoint)]
	if peer != sh {
		_, _ = peer.abort(ctx, time.Now().Add(abortTimeout), []wire.HoldRefJSON{{Hold: st.Hold}}, nil)
	}
	return wire.ReservationJSON{
		ID: visible, Accepted: true, State: wire.StateCancelled,
		Routed: wire.RoutedCrossShard,
	}, nil
}

// RouterHealthJSON is the GET /v1/healthz body: the router is stateless,
// so health is just "the process is up", plus the ring shape for
// debugging which instance answered.
type RouterHealthJSON struct {
	Status string   `json:"status"`
	Shards []string `json:"shards"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	names := make([]string, rt.ring.NumShards())
	for i := range names {
		names[i] = rt.ring.ShardName(i)
	}
	callplane.WriteJSON(w, http.StatusOK, RouterHealthJSON{Status: "ok", Shards: names})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	rt.met.write(w)
}
