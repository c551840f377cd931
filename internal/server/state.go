package server

// The reservation state machine: the state one WAL event describes, and the
// one function per transition that changes it. The live daemon (server.go,
// batch.go, holds.go), the event replayer a follower and every boot run
// (replication.go) and the snapshot installer (snapshot.go) all change state
// through these functions and no others, so a primary and the follower that
// will replace it run the same code for every state change.
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

type holdState int

const (
	holdHeld holdState = iota + 1
	holdConfirmed
	holdAborted
)

func (st holdState) String() string {
	switch st {
	case holdHeld:
		return "held"
	case holdConfirmed:
		return "confirmed"
	case holdAborted:
		return "aborted"
	}
	return fmt.Sprintf("holdState(%d)", int(st))
}

// holdEntry is one side of a cross-shard admission, keyed by the
// router-generated hold key both sides share. By value it is also the
// decoded record of one: what a RESERVE, a WAL event or a snapshot row says
// about a hold, before a transition files it (and sets state and booked).
type holdEntry struct {
	key  string
	side string // trace.HoldSideIngress or trace.HoldSideEgress
	// point is the local access point booked; peer is the other side's
	// point index on its owning shard (audit and cancel routing only).
	point topology.PointID
	peer  int
	// id is the local request ID the ingress side allocated for the pair
	// (the router namespaces it into the client-visible ID); -1 on the
	// egress side.
	id request.ID
	// The proposed grant and the submission echo behind it.
	bw       units.Bandwidth
	sigma    units.Time
	tau      units.Time
	volume   units.Volume
	maxRate  units.Bandwidth
	expireAt units.Time
	state    holdState
	// booked tracks whether the one-sided capacity is currently reserved
	// in the ledger (false once released, aborted or refused).
	booked bool
	reason string // refusal reason for held=false tombstones
}

func (e *holdEntry) dir() topology.Direction {
	if e.side == trace.HoldSideIngress {
		return topology.Ingress
	}
	return topology.Egress
}

// state is everything a WAL event describes: the capacity ledger, the
// reservation registry with its retention queue, the hold table with its
// own, the ID allocator and the lifetime counters.
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

	// Cross-shard two-phase holds (see holds.go): every hold this shard
	// knows about by router key, the ingress-side holds by the local request
	// ID they allocated (cancel routing), and the FIFO eviction queue of
	// resolved holds.
	holds     map[string]*holdEntry
	holdsByID map[request.ID]string
	holdsDone []string
}

func newState(net *topology.Network, retention int, entries *sync.Pool) *state {
	return &state{
		ledger:    alloc.NewSharded(net),
		entries:   entries,
		retention: retention,
		resv:      make(map[request.ID]*entry),
		holds:     make(map[string]*holdEntry),
		holdsByID: make(map[request.ID]string),
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
	if err := st.ledger.Reserve(r, g); err != nil {
		return nil, err
	}
	return st.register(r, g), nil
}

// finish ends a live reservation — to is StateCancelled or StateExpired —
// and returns its capacity. The caller has cancelled the expiry timer.
func (st *state) finish(e *entry, to State) {
	st.ledger.Revoke(e.req)
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

// fileHold stores h under its key (and its request ID, if it has one).
func (st *state) fileHold(h holdEntry) *holdEntry {
	e := &h
	st.holds[e.key] = e
	if e.id >= 0 {
		st.holdsByID[e.id] = e.key
	}
	return e
}

// hold files a held hold whose one-sided capacity is booked — by the live
// RESERVE under its point lock, or by restoreHold.
func (st *state) hold(h holdEntry) *holdEntry {
	h.state, h.booked = holdHeld, true
	return st.fileHold(h)
}

// refuse files a tombstone: a hold that books nothing and answers every
// later message for its key with h.reason — a refused RESERVE, or an ABORT
// that arrived before the RESERVE it cancels.
func (st *state) refuse(h holdEntry) *holdEntry {
	h.state, h.booked = holdAborted, false
	e := st.fileHold(h)
	st.retireHold(e.key)
	return e
}

// restoreHold books a recorded hold and files it held: how replay and
// snapshot install re-create one.
func (st *state) restoreHold(h holdEntry) (*holdEntry, error) {
	net, points := st.ledger.Network(), 0
	switch h.side {
	case trace.HoldSideIngress:
		points = net.NumIngress()
	case trace.HoldSideEgress:
		points = net.NumEgress()
	default:
		return nil, fmt.Errorf("hold %q has unknown side %q", h.key, h.side)
	}
	if h.point < 0 || int(h.point) >= points {
		return nil, fmt.Errorf("hold %q on unknown %s point %d", h.key, h.dir(), h.point)
	}
	if !(h.bw > 0 && h.tau > h.sigma) {
		return nil, fmt.Errorf("hold %q has degenerate grant", h.key)
	}
	if err := st.ledger.HoldReserve(h.dir(), h.point, h.sigma, h.tau, h.bw); err != nil {
		return nil, fmt.Errorf("hold %q: %w", h.key, err)
	}
	return st.hold(h), nil
}

// confirm commits a held hold: its capacity stays booked until release at
// τ. It reports whether the hold was there to commit.
func (st *state) confirm(e *holdEntry) bool {
	if e.state != holdHeld {
		return false
	}
	e.state = holdConfirmed
	return true
}

// rollback leaves the hold under key aborted — an ABORT, or a TTL that
// lapsed — returning whatever it still books, and reports whether capacity
// came back. A key never seen gets a tombstone carrying reason, so a late
// RESERVE of an already-aborted pair books nothing.
func (st *state) rollback(key, reason string) (e *holdEntry, released bool) {
	e, ok := st.holds[key]
	if !ok {
		return st.refuse(holdEntry{key: key, id: -1, peer: -1, reason: reason}), false
	}
	if e.state != holdAborted {
		released = st.unbook(e)
		e.state = holdAborted
		st.retireHold(key)
	}
	return e, released
}

// releaseHold returns a confirmed hold's capacity on schedule, at τ. It
// reports whether there was anything to return.
func (st *state) releaseHold(e *holdEntry) bool {
	if e.state != holdConfirmed || !st.unbook(e) {
		return false
	}
	st.retireHold(e.key)
	return true
}

func (st *state) unbook(e *holdEntry) bool {
	if !e.booked {
		return false
	}
	st.ledger.HoldRelease(e.dir(), e.point, e.sigma, e.tau, e.bw)
	e.booked = false
	return true
}

// retireHold queues a resolved hold for FIFO eviction under the same
// retention bound as finished reservations, so tombstones answer duplicate
// protocol messages for a while without growing forever.
func (st *state) retireHold(key string) {
	st.holdsDone = append(st.holdsDone, key)
	for len(st.holdsDone) > st.retention {
		evict := st.holdsDone[0]
		st.holdsDone = st.holdsDone[1:]
		if e, ok := st.holds[evict]; ok && (e.state == holdAborted || !e.booked) {
			delete(st.holds, evict)
			if e.id >= 0 {
				delete(st.holdsByID, e.id)
			}
		}
	}
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
