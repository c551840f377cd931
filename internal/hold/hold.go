// Package hold is the one state machine of the two-phase RESERVE / CONFIRM /
// ABORT protocol: the hold table one side of a cross-point admission keeps,
// and the transitions that change it. Both users of the protocol change hold
// state through it and nothing else — the daemon's cross-shard holds
// (internal/server, one table per shard) and the §7 distributed-admission
// simulator (internal/distributed, one table per side).
//
// The table books nothing itself: its caller decides and books first (an
// admission step, a one-sided check, a replayed record) and then files the
// outcome. It gives capacity back through the one Releaser method, at
// rollback or at the on-schedule release of τ, so that a key books at most
// once and every booking is returned exactly once. It knows nothing of
// HTTP, the WAL or a clock; callers serialize.
package hold

import (
	"fmt"
	"slices"
	"strings"

	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

// State is where one hold stands in the protocol.
type State int

const (
	// Held: booked under a TTL, awaiting CONFIRM or ABORT.
	Held State = iota + 1
	// Confirmed: committed; booked until it is released at τ.
	Confirmed
	// Aborted: rolled back, refused, or a tombstone for an ABORT that beat
	// its RESERVE. Books nothing and answers every later message for its key.
	Aborted
)

func (st State) String() string {
	switch st {
	case Held:
		return "held"
	case Confirmed:
		return "confirmed"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("holdState(%d)", int(st))
}

// Releaser takes back what a hold booked, over the span Entry.Sigma to
// Entry.Tau. *alloc.Sharded is the daemon's and the simulator's alike; the
// interface keeps this package from importing it and lets the tests count
// releases.
type Releaser interface {
	HoldRelease(dir topology.Direction, p topology.PointID, sigma, tau units.Time, bw units.Bandwidth)
}

// Entry is one side of a two-phase admission, keyed by the key both sides
// share. By value it is also the decoded record of one: what a RESERVE, a WAL
// event or a snapshot row says about a hold, before a transition files it
// (and sets State and Booked).
type Entry struct {
	Key  string
	Side string // trace.HoldSideIngress or trace.HoldSideEgress
	// Point is the local access point booked; Peer is the other side's
	// point index on its owner (audit and cancel routing only).
	Point topology.PointID
	Peer  int
	// ID is the request ID the ingress side allocated for the pair; -1 on
	// the egress side.
	ID request.ID
	// The proposed grant and the submission echo behind it. Sigma and Tau
	// are the span the hold books: the grant's [σ, τ) in the daemon, and in
	// the simulator from the instant its side decided it until τ.
	BW       units.Bandwidth
	Sigma    units.Time
	Tau      units.Time
	Volume   units.Volume
	MaxRate  units.Bandwidth
	ExpireAt units.Time
	State    State
	// Booked tracks whether the one-sided capacity is currently reserved
	// (false once released, aborted or refused).
	Booked bool
	Reason string // refusal reason of an aborted hold
}

// Dir is the direction of the point the hold books.
func (e *Entry) Dir() topology.Direction {
	if e.Side == trace.HoldSideIngress {
		return topology.Ingress
	}
	return topology.Egress
}

// Table is every hold one owner knows about, by key and (ingress side) by
// the request ID it allocated, with the FIFO eviction queue of resolved
// holds.
type Table struct {
	rel       Releaser
	retention int
	byKey     map[string]*Entry
	byID      map[request.ID]string
	done      []string
}

// NewTable returns an empty table that releases through rel and keeps at
// most retention resolved holds.
func NewTable(rel Releaser, retention int) *Table {
	return &Table{rel: rel, retention: retention, byKey: make(map[string]*Entry), byID: make(map[request.ID]string)}
}

// Get returns the hold filed under key.
func (t *Table) Get(key string) (*Entry, bool) {
	e, ok := t.byKey[key]
	return e, ok
}

// KeyOf returns the key of the hold that allocated request id.
func (t *Table) KeyOf(id request.ID) (string, bool) {
	key, ok := t.byID[id]
	return key, ok
}

func (t *Table) file(h Entry) *Entry {
	e := &h
	t.byKey[e.Key] = e
	if e.ID >= 0 {
		t.byID[e.ID] = e.Key
	}
	return e
}

// Hold files a held hold whose one-sided capacity the caller has booked.
func (t *Table) Hold(h Entry) *Entry {
	h.State, h.Booked = Held, true
	return t.file(h)
}

// Refuse files a tombstone: a hold that books nothing and answers every
// later message for its key with h.Reason — a refused RESERVE, or an ABORT
// that arrived before the RESERVE it cancels.
func (t *Table) Refuse(h Entry) *Entry {
	h.State, h.Booked = Aborted, false
	e := t.file(h)
	t.retire(e.Key)
	return e
}

// Confirm commits a held hold: its capacity stays booked until Release at
// τ. It reports whether the hold was there to commit.
func (t *Table) Confirm(e *Entry) bool {
	if e.State != Held {
		return false
	}
	e.State = Confirmed
	return true
}

// Rollback leaves the hold under key aborted — an ABORT, or a TTL that
// lapsed — returning whatever it still books, and reports whether capacity
// came back. A key never seen gets a tombstone carrying reason, so a late
// RESERVE of an already-aborted pair books nothing.
func (t *Table) Rollback(key, reason string) (e *Entry, released bool) {
	e, ok := t.byKey[key]
	if !ok {
		return t.Refuse(Entry{Key: key, ID: -1, Peer: -1, Reason: reason}), false
	}
	if e.State != Aborted {
		released = t.unbook(e)
		e.State = Aborted
		t.retire(key)
	}
	return e, released
}

// Release returns a confirmed hold's capacity on schedule, at τ. It
// reports whether there was anything to return.
func (t *Table) Release(e *Entry) bool {
	if e.State != Confirmed || !t.unbook(e) {
		return false
	}
	t.retire(e.Key)
	return true
}

func (t *Table) unbook(e *Entry) bool {
	if !e.Booked {
		return false
	}
	t.rel.HoldRelease(e.Dir(), e.Point, e.Sigma, e.Tau, e.BW)
	e.Booked = false
	return true
}

// retire queues a resolved hold for FIFO eviction under the retention
// bound, so tombstones answer duplicate protocol messages for a while
// without growing forever.
func (t *Table) retire(key string) {
	t.done = append(t.done, key)
	for len(t.done) > t.retention {
		evict := t.done[0]
		t.done = t.done[1:]
		if e, ok := t.byKey[evict]; ok && (e.State == Aborted || !e.Booked) {
			delete(t.byKey, evict)
			if e.ID >= 0 {
				delete(t.byID, e.ID)
			}
		}
	}
}

// Booked counts the holds that currently book capacity, by state.
func (t *Table) Booked() (held, confirmed int) {
	for _, e := range t.byKey {
		switch {
		case !e.Booked:
		case e.State == Held:
			held++
		case e.State == Confirmed:
			confirmed++
		}
	}
	return held, confirmed
}

// Retired lists the resolved holds the table still keeps in the order they
// resolved, which is the order retention evicts them in. Filing them again
// in this order rebuilds the same queue.
func (t *Table) Retired() []*Entry {
	seen := make(map[*Entry]bool, len(t.done))
	var out []*Entry
	for _, key := range t.done {
		if e, ok := t.byKey[key]; ok && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// All lists every hold in the table in key order.
func (t *Table) All() []*Entry {
	all := make([]*Entry, 0, len(t.byKey))
	for _, e := range t.byKey {
		all = append(all, e)
	}
	slices.SortFunc(all, func(a, b *Entry) int { return strings.Compare(a.Key, b.Key) })
	return all
}
