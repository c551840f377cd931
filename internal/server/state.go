package server

// The reservation state machine: the state one WAL event describes, and the
// one function per transition that changes it. The live daemon (server.go,
// batch.go, holds.go), the event replayer a follower and every boot run
// (replication.go) and the snapshot installer (snapshot.go) all change state
// through these functions and no others, so a primary and the follower that
// will replace it run the same code for every state change. Hold state
// changes through internal/hold's Step alone, which the §7 simulator
// (internal/distributed) runs too.
//
// The struct knows nothing of HTTP, the WAL, the replication role or the
// clock. Whoever calls a transition decides first (admission, or decoding a
// record), arms the timer the new state waits on afterwards, and logs the
// event if it is the one that decided. Callers serialize: under s.mu.

import (
	"fmt"
	"slices"
	"sync"

	"gridbw/internal/alloc"
	"gridbw/internal/des"
	"gridbw/internal/hold"
	"gridbw/internal/metrics"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

type entry struct {
	// req is the request as granted: its window is the grant's [σ, τ] on
	// every route, whatever window the submission asked for.
	req    request.Request
	grant  request.Grant
	state  State // StateActive while live (Booked derived from clock), else terminal
	expire des.Handle
	// fire is this entry's expiry callback, bound once when the pool first
	// creates the entry, so re-admissions through a recycled entry schedule
	// no new closure. It checks the registry still maps the ID to this entry
	// before acting, so a recycled entry can never be expired by a stale
	// event.
	fire des.Event
}

// state is everything a WAL event describes: the capacity ledger, the
// reservation registry with its retention queue, the hold table with its
// own, the idempotency cache with its own, the ID allocator and the lifetime
// counters.
type state struct {
	// ledger is internally sharded (one lock per access point). The live
	// admission step books through it without the caller's lock; every
	// transition here runs under it (see the package comment's lock order).
	ledger *alloc.Sharded
	// entries recycles reservation entries once they are evicted from the
	// finished FIFO, keeping the steady-state accept path allocation-free.
	entries *sync.Pool
	// retention bounds the finished FIFO and the resolved-hold FIFO.
	retention int

	resv     map[request.ID]*entry
	finished []request.ID // FIFO eviction queue of terminal IDs
	nextID   request.ID
	stats    metrics.Online

	// holds are the cross-shard two-phase holds (see holds.go), by router
	// key and by the local request ID an ingress side allocated (cancel
	// routing). The table gives capacity back to ledger.
	holds *hold.Table

	// idem maps idempotency keys to their decisions, idemOrder is its FIFO
	// eviction queue (retention bounds it too).
	idem      map[string]*idemEntry
	idemOrder []string
}

func newState(net *topology.Network, retention int, entries *sync.Pool) *state {
	ledger := alloc.NewSharded(net)
	return &state{
		ledger:    ledger,
		entries:   entries,
		retention: retention,
		resv:      make(map[request.ID]*entry),
		holds:     hold.NewTable(ledger, retention),
		idem:      make(map[string]*idemEntry),
	}
}

// remember caches an idempotency-cache slot under its key, bounded by the
// same FIFO retention as finished reservations.
func (st *state) remember(key string, e *idemEntry) {
	st.idem[key] = e
	st.idemOrder = append(st.idemOrder, key)
	for len(st.idemOrder) > st.retention {
		evict := st.idemOrder[0]
		st.idemOrder = st.idemOrder[1:]
		delete(st.idem, evict)
	}
}

// settled is the done channel every decision filed from a record shares: a
// recorded decision is settled from the start.
var settled = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// fileKey files a recorded decision under the key it carried, unless the key
// is already filed (a re-delivered record).
func (st *state) fileKey(key string, d Decision) {
	if key == "" {
		return
	}
	if _, ok := st.idem[key]; !ok {
		st.remember(key, &idemEntry{done: settled, d: d})
	}
}

// register files a granted reservation whose capacity is booked — by the
// live admission step under its pair lock, or by restore.
func (st *state) register(r request.Request, g request.Grant) *entry {
	e := st.entries.Get().(*entry)
	r.Start, r.Finish = g.Sigma, g.Tau
	e.req, e.grant, e.state = r, g, StateActive
	st.resv[r.ID] = e
	st.stats.RecordAccept(g.Bandwidth, r.Volume)
	return e
}

// restore books a recorded grant and registers it: how replay and snapshot
// install re-create a reservation. The ledger re-checks equation (1), so a
// record that over-commits a point is refused with nothing changed.
func (st *state) restore(r request.Request, g request.Grant) (*entry, error) {
	net := st.ledger.Network()
	if r.Ingress < 0 || int(r.Ingress) >= net.NumIngress() || r.Egress < 0 || int(r.Egress) >= net.NumEgress() {
		return nil, fmt.Errorf("reservation %d routed through unknown point", r.ID)
	}
	if !(g.Bandwidth > 0 && g.Tau > g.Sigma) {
		return nil, fmt.Errorf("reservation %d has degenerate grant", r.ID)
	}
	// The request as granted: its window is the grant's (register).
	r.Start, r.Finish = g.Sigma, g.Tau
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if err := st.ledger.Reserve(r, g); err != nil {
		return nil, err
	}
	return st.register(r, g), nil
}

// finish ends a live reservation — to is StateCancelled or StateExpired —
// and returns its capacity. The caller has cancelled the expiry timer. A
// cancel returns what is left of the grant from now, the instant the event
// carries; an expiry returns it at τ, where its whole span lies behind the
// profiles' new floor and nothing is walked (alloc.Sharded.Revoke).
func (st *state) finish(e *entry, to State, now units.Time) {
	at := now
	if to == StateExpired {
		at = e.grant.Tau
	}
	st.ledger.Revoke(e.req, at)
	e.state = to
	if to == StateCancelled {
		st.stats.RecordCancel()
	} else {
		st.stats.RecordExpire()
	}
	st.finished = append(st.finished, e.req.ID)
	for len(st.finished) > st.retention {
		evict := st.finished[0]
		st.finished = st.finished[1:]
		if old, ok := st.resv[evict]; ok {
			delete(st.resv, evict)
			// Terminal and evicted: its expiry event fired or was cancelled,
			// and nothing outside the caller's lock holds entries, so the
			// record can be recycled.
			old.req, old.grant, old.state, old.expire = request.Request{}, request.Grant{}, "", des.Handle{}
			st.entries.Put(old)
		}
	}
}

// bookHold range-checks a recorded hold and books it through the ledger:
// the decision a replayed or installed RESERVE carries to the hold step. A
// recorded refusal (its Reason set) books nothing and is filed refused.
func (st *state) bookHold(h hold.Entry) (hold.Entry, error) {
	net, points := st.ledger.Network(), 0
	switch h.Side {
	case trace.HoldSideIngress:
		points = net.NumIngress()
	case trace.HoldSideEgress:
		points = net.NumEgress()
	default:
		return h, fmt.Errorf("hold %q has unknown side %q", h.Key, h.Side)
	}
	if h.Point < 0 || int(h.Point) >= points {
		return h, fmt.Errorf("hold %q on unknown %s point %d", h.Key, h.Dir(), h.Point)
	}
	if h.Reason != "" {
		return h, nil
	}
	if !(h.BW > 0 && h.Tau > h.Sigma) {
		return h, fmt.Errorf("hold %q has degenerate grant", h.Key)
	}
	if err := st.ledger.HoldReserve(h.Dir(), h.Point, h.Sigma, h.Tau, h.BW); err != nil {
		return h, fmt.Errorf("hold %q: %w", h.Key, err)
	}
	return h, nil
}

// liveIDs lists the reservations holding capacity, in ID order.
func (st *state) liveIDs() []request.ID {
	ids := make([]request.ID, 0, len(st.resv))
	for id, e := range st.resv {
		if e.state == StateActive {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// verify audits equation (1) twice over: first the sharded profiles
// themselves (all shards locked in the global order, one consistent cut),
// then an independent replay of the live registry into a fresh
// single-threaded ledger — if the recorded grants could not be re-admitted,
// the shards and the registry have diverged.
func (st *state) verify() error {
	if err := st.ledger.CheckInvariant(); err != nil {
		return err
	}
	fresh := alloc.NewLedger(st.ledger.Network())
	for _, id := range st.liveIDs() {
		e := st.resv[id]
		if err := fresh.Reserve(e.req, e.grant); err != nil {
			return fmt.Errorf("server: live registry fails replay: %w", err)
		}
	}
	return fresh.CheckInvariant()
}
