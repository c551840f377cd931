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
// Each shard is addressed through a failover-aware server/client over its
// group members, so primary rediscovery, fencing-epoch preference, and
// the probe-cooldown negative cache all apply per shard, and the shard
// calls ride that client's call stream to each member (server/calls.go).
// The router serves the same stream to its own callers: submit, batch,
// get and cancel are one function each (Call), whichever carrier brought
// the call. The router itself keeps no durable state: any instance with
// the same static configuration routes identically.
package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gridbw/internal/metrics"
	"gridbw/internal/server"
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
	streams server.Streams
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
// four ops Call answers (server.CallRoute: framed, or through the JSON
// codec the daemon's routes share), health, and the router's own metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	face := server.JSONFace{MaxBatch: rt.maxBatch, BareBatch: true}
	for _, op := range [...]wire.Op{wire.OpSubmit, wire.OpBatch, wire.OpGet, wire.OpCancel} {
		mux.Handle(op.Pattern(), server.CallRoute(&rt.streams, rt.Call, op, face))
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
func (rt *Router) Call(ctx context.Context, c *server.Call) server.Reply {
	var items []wire.BatchItemJSON
	status := http.StatusOK
	switch c.Op {
	case wire.OpSubmit:
		ws, err := c.DecodeSubmit()
		if err != nil {
			return server.ErrorReply(http.StatusBadRequest, err)
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
			return server.ErrorReply(http.StatusBadRequest, err)
		}
		items = rt.batch(ctx, subs)
	case wire.OpGet, wire.OpCancel:
		visible, err := wire.DecodeIDFrame(c.Buf.B)
		if err != nil {
			return server.ErrorReply(http.StatusBadRequest, err)
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
		return server.ErrorReply(http.StatusNotFound, errors.New("404 page not found"))
	}
	c.Buf.B = wire.AppendBatchItems(c.Buf.B[:0], items)
	return server.Reply{Status: status}
}

// upstreamReply relays a shard-side failure: API answers pass through
// with their status (and Retry-After hint), transport-level failures
// become 502 — the shard may be mid-failover.
func upstreamReply(err error) server.Reply {
	var ae *client.APIError
	if errors.As(err, &ae) {
		rep := server.Reply{Status: ae.StatusCode, JSON: wire.ErrorJSON{Error: ae.Message}}
		if ae.RetryAfter > 0 {
			rep.RetryAfter = int((ae.RetryAfter + time.Second - 1) / time.Second)
		}
		return rep
	}
	return server.ErrorReply(http.StatusBadGateway, err)
}

// submit routes one submission: a same-shard record travels on to its
// owner as a frame, a cross-shard one through the hold protocol.
func (rt *Router) submit(ctx context.Context, ws wire.Submission) (wire.ReservationJSON, error) {
	inIdx, egIdx := rt.ring.OwnerIn(ws.From), rt.ring.OwnerEg(ws.To)
	if inIdx != egIdx {
		it := &crossItem{ws: ws, owner: [2]int{inIdx, egIdx}}
		rt.crossShard(ctx, []*crossItem{it})
		return it.res, it.err
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

// unsettled lists one side of every item still in the protocol, in
// request order.
func unsettled(items []*crossItem, which int) []side {
	var out []side
	for _, it := range items {
		if !it.settled {
			out = append(out, side{it, which})
		}
	}
	return out
}

// perShard runs call once per shard owning any of sides, handing it that
// shard's sides in the order given, all shards in parallel, and returns
// once every call has. A call touches only the sides it is handed. The last
// shard runs on the caller's goroutine: both RESERVE steps of a single
// submit have one shard each, and need no goroutine at all.
func (rt *Router) perShard(ctx context.Context, sides []side, call func(ctx context.Context, sh *shard, sides []side)) {
	groups := make([][]side, len(rt.shards))
	n := 0
	for _, sd := range sides {
		i := sd.it.owner[sd.which]
		if groups[i] == nil {
			n++
		}
		groups[i] = append(groups[i], sd)
	}
	var wg sync.WaitGroup
	for i, group := range groups {
		if group == nil {
			continue
		}
		if n--; n == 0 {
			call(ctx, rt.shards[i], group)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(ctx, rt.shards[i], group)
		}()
	}
	wg.Wait()
}

// itemError lifts the per-item failure of a list-shaped hold call back
// into the error a one-item call would have returned.
func itemError(code int, msg string) error {
	return &client.APIError{StatusCode: code, Message: msg}
}

// crossShard drives the cross-shard items of one client call (a single
// submit is the one-item case) through the two-phase hold protocol in
// three waves, each one list-shaped call per shard involved: RESERVE on
// the ingress owners, RESERVE on the egress owners carrying the grants the
// first wave proposed, CONFIRM on every owner carrying its ingress-side
// and egress-side keys alike. Lists keep request order, so a shard decides
// its items in the order one-at-a-time submission would. Sides that booked
// but did not commit as a pair are rolled back by one detached ABORT call
// per shard. With S shards that is at most 3·S hold trips per client call
// instead of four per item. A shard that does not answer within a wave's
// deadline costs the items that touch it, not the rest of the call.
func (rt *Router) crossShard(ctx context.Context, items []*crossItem) {
	t0 := time.Now()
	for _, it := range items {
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

	// The calls of a wave return together, so each wave runs under its own
	// deadline, a quarter of the hold TTL: a shard that stops answering fails
	// its own items (for the caller to retry) after that long, and the three
	// waves still reach CONFIRM with every other shard's first holds live.
	wave := func(sides []side, call func(ctx context.Context, sh *shard, sides []side)) {
		ctx, cancel := context.WithTimeout(ctx, rt.holdTTL/4)
		defer cancel()
		rt.perShard(ctx, sides, call)
	}
	reserve := func(which int, request func(*crossItem) wire.HoldReserveJSON) {
		wave(unsettled(items, which), func(ctx context.Context, sh *shard, sides []side) {
			reqs := make([]wire.HoldReserveJSON, len(sides))
			for j, sd := range sides {
				reqs[j] = request(sd.it)
			}
			resps, err := sh.reserve(ctx, reqs)
			for j, sd := range sides {
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
		})
	}
	// Wave 1: each ingress owner takes the one-sided step and proposes.
	reserve(ingress, func(it *crossItem) wire.HoldReserveJSON {
		ws := &it.ws
		return wire.HoldReserveJSON{
			Hold: it.hold, Side: trace.HoldSideIngress,
			Point: ws.From, PeerPoint: ws.To,
			TTLS: rt.holdTTL.Seconds(), RelTimes: ws.RelNotBefore || ws.RelDeadline,
			VolumeBytes: float64(ws.Volume), MaxRateBps: float64(ws.MaxRate),
			NotBeforeS: float64(ws.NotBefore), DeadlineS: float64(ws.Deadline),
		}
	})
	// Wave 2: each egress owner checks the proposals. A grant window
	// crosses clocks as offsets from the ingress shard's NowS; the egress
	// shard resolves them against its own clock.
	reserve(egress, func(it *crossItem) wire.HoldReserveJSON {
		ws, rin := &it.ws, &it.resv[ingress]
		return wire.HoldReserveJSON{
			Hold: it.hold, Side: trace.HoldSideEgress,
			Point: ws.To, PeerPoint: ws.From,
			TTLS: rt.holdTTL.Seconds(), RelTimes: true,
			RateBps: rin.RateBps,
			SigmaS:  rin.SigmaS - rin.NowS, TauS: rin.TauS - rin.NowS,
			VolumeBytes: float64(ws.Volume), MaxRateBps: float64(ws.MaxRate),
		}
	})
	// Wave 3: every owner commits, all at once — abort compensates a
	// confirmed side, so committing the ingress side first buys nothing.
	wave(append(unsettled(items, ingress), unsettled(items, egress)...), func(ctx context.Context, sh *shard, sides []side) {
		refs := make([]wire.HoldRefJSON, len(sides))
		for j, sd := range sides {
			refs[j] = wire.HoldRefJSON{Hold: sd.it.hold, Epoch: sd.it.resv[sd.which].Epoch}
		}
		sts, err := sh.confirm(ctx, refs)
		for j, sd := range sides {
			sd.it.cerr[sd.which] = err
			if err == nil && sts[j].Code != 0 {
				sd.it.cerr[sd.which] = itemError(sts[j].Code, sts[j].Error)
			}
		}
	})

	var rollback []side
	for _, it := range items {
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
		for which, on := range it.abort {
			if on {
				rollback = append(rollback, side{it, which})
			}
		}
	}
	if len(rollback) > 0 {
		go rt.abortSides(rollback)
	}
}

// abortSides converges the given holds to aborted, one call per shard,
// best-effort and detached from the request context (the client may be
// gone). Failures are tolerable: the shard-side TTL is the backstop that
// actually guarantees no capacity leaks.
func (rt *Router) abortSides(sides []side) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	rt.perShard(ctx, sides, func(ctx context.Context, sh *shard, sides []side) {
		refs := make([]wire.HoldRefJSON, len(sides))
		for j, sd := range sides {
			refs[j] = wire.HoldRefJSON{Hold: sd.it.hold}
		}
		_, _ = sh.abort(ctx, refs)
	})
}

func (sh *shard) reserve(ctx context.Context, reqs []wire.HoldReserveJSON) ([]wire.HoldReserveResponseJSON, error) {
	t0 := time.Now()
	resps, err := sh.c.HoldReserve(ctx, reqs)
	sh.met.observeHold(wire.OpReserve, len(reqs), time.Since(t0), err)
	return resps, err
}

// confirm commits one shard's share of a wave, riding out a failover
// mid-hold: a 403 after the client's built-in rediscovery means the
// lineage changed (a reserve-time epoch is fenced) — refresh the epoch
// from the new primary and present it once. The promoted follower replayed
// the holds from the WAL, so the confirm lands on real state.
func (sh *shard) confirm(ctx context.Context, refs []wire.HoldRefJSON) ([]wire.HoldStateJSON, error) {
	t0 := time.Now()
	sts, err := sh.c.HoldConfirm(ctx, refs)
	if err != nil && client.IsReadOnly(err) {
		if rs, rerr := sh.c.Replication(ctx); rerr == nil && rs.Role == "primary" {
			stale := false
			for j := range refs {
				stale = stale || refs[j].Epoch != rs.Epoch
				refs[j].Epoch = rs.Epoch
			}
			if stale {
				sts, err = sh.c.HoldConfirm(ctx, refs)
			}
		}
	}
	sh.met.observeHold(wire.OpConfirm, len(refs), time.Since(t0), err)
	return sts, err
}

func (sh *shard) abort(ctx context.Context, refs []wire.HoldRefJSON) ([]wire.HoldStateJSON, error) {
	t0 := time.Now()
	sts, err := sh.c.HoldAbort(ctx, refs)
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
	groups := make(map[int][]int)
	var cross []int
	var crossItems []*crossItem
	for i := range subs {
		inIdx, egIdx := rt.ring.OwnerIn(subs[i].From), rt.ring.OwnerEg(subs[i].To)
		if inIdx == egIdx {
			groups[inIdx] = append(groups[inIdx], i)
		} else {
			cross = append(cross, i)
			crossItems = append(crossItems, &crossItem{ws: subs[i], owner: [2]int{inIdx, egIdx}})
		}
	}
	rt.met.observeBatch(len(groups), len(cross))
	var wg sync.WaitGroup
	for shardIdx, idxs := range groups {
		wg.Add(1)
		go func(shardIdx int, idxs []int) {
			defer wg.Done()
			sh := rt.shards[shardIdx]
			slice := make([]wire.Submission, len(idxs))
			for j, i := range idxs {
				slice[j] = subs[i]
			}
			t0 := time.Now()
			res, err := sh.c.SubmitBatchWire(ctx, slice)
			sh.met.observe(time.Since(t0), err)
			if err != nil {
				msg := err.Error()
				for _, i := range idxs {
					items[i] = wire.BatchItemJSON{Error: msg}
				}
				return
			}
			for j, i := range idxs {
				it := res[j]
				if it.Reservation != nil {
					it.Reservation.ID = rt.visibleID(it.Reservation.ID, shardIdx)
				}
				items[i] = it
			}
		}(shardIdx, idxs)
	}
	if len(cross) > 0 {
		rt.crossShard(ctx, crossItems)
		for j, i := range cross {
			if it := crossItems[j]; it.err != nil {
				items[i] = wire.BatchItemJSON{Error: it.err.Error()}
			} else {
				items[i] = wire.BatchItemJSON{Reservation: &it.res}
			}
		}
	}
	wg.Wait()
	return items
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
	sts, aerr := sh.abort(ctx, []wire.HoldRefJSON{{ID: &local}})
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
		ctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		defer cancel()
		_, _ = peer.abort(ctx, []wire.HoldRefJSON{{Hold: st.Hold}})
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
	server.WriteJSON(w, http.StatusOK, RouterHealthJSON{Status: "ok", Shards: names})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	rt.met.write(w)
}
