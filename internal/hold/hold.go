// Package hold is the one state machine of the two-phase RESERVE / CONFIRM /
// ABORT protocol: the hold table one side of a cross-point admission keeps,
// and Step, the one function that picks the transition a message takes and
// takes it. Both users of the protocol change hold state through Step and
// nothing else — the daemon's cross-shard holds (internal/state, one table per
// shard: its live calls and timers, its WAL replay and its snapshot install)
// and the §7 distributed-admission simulator (internal/distributed, one table
// per side). They interpret the Result: answer, arm the timer it names, log
// the transitions it marks; none of them chooses a transition.
//
// The table books nothing itself: a RESERVE carries its side's own step (an
// admission, a one-sided check, a replayed record), which runs only for a key
// the table does not know. It gives capacity back through the one Releaser
// method, at rollback or at the on-schedule release of τ, so that a key books
// at most once and every booking is returned exactly once. It knows nothing of
// HTTP, the WAL or a clock; callers serialize.
package hold

import (
	"fmt"
	"math"
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
// Entry.Tau, at instant at: the store may forget the point's past before it.
// The table passes τ for a release on schedule, an instant the owner's clock
// has reached when its timer fires, and −∞ for a rollback, whose instant it
// does not know and which may come before a booked-ahead σ. *alloc.Sharded is
// the daemon's and the simulator's alike; the interface keeps this package
// from importing it and lets the tests count releases.
type Releaser interface {
	HoldRelease(dir topology.Direction, p topology.PointID, sigma, tau units.Time, bw units.Bandwidth, at units.Time)
}

// Entry is one side of a two-phase admission, keyed by the key both sides
// share. By value it is also the decoded record of one: what a RESERVE, a WAL
// event or a snapshot row says about a hold, before Step files it (and sets
// State and Booked).
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

// Kind is what a message asks of the hold under its key.
type Kind int

const (
	// Reserve books the key's side once: Msg.Decide runs for a key the
	// table does not know, and a known key answers what its first RESERVE
	// decided.
	Reserve Kind = iota + 1
	// Confirm commits a held hold; it stays booked until Release.
	Confirm
	// Abort rolls the hold back, totally: a held or a confirmed hold returns
	// what it books, and a key never seen gets a tombstone carrying
	// Msg.Reason, so a late RESERVE of an already-aborted pair books nothing.
	Abort
	// Lapse is the TTL of an unconfirmed hold running out.
	Lapse
	// Release is τ of a confirmed hold: its booking returns on schedule.
	Release
)

// Msg is one protocol message or timer for the hold under Key.
type Msg struct {
	Kind Kind
	Key  string
	// Decide, on a Reserve of a key the table does not know, takes the
	// side's own step and returns the entry it filled: booked, or, when it
	// refused, with Reason set. An error files nothing.
	Decide func() (Entry, error)
	// Reason is what the tombstone answers when an Abort finds no hold.
	Reason string
}

// Answer is what the owner of a hold replies to a message.
type Answer int

const (
	// Silent: a timer answers no one.
	Silent Answer = iota
	// Granted: a RESERVE holds Entry's grant.
	Granted
	// Refused: a RESERVE books nothing; Entry.Reason says why, if it knows.
	Refused
	// Committed: a CONFIRM finds the hold confirmed.
	Committed
	// RolledBack: an ABORT leaves the hold aborted.
	RolledBack
	// NotFound: a CONFIRM of a key the table does not know (404).
	NotFound
	// Conflict: a CONFIRM of a hold that already rolled back (409).
	Conflict
)

// Waits is the timer e's state waits on, named by the message it delivers:
// Lapse at ExpireAt for a held hold, Release at Tau for a confirmed one that
// still books; zero for a hold that waits on nothing.
func (e *Entry) Waits() Kind {
	switch {
	case !e.Booked:
		return 0
	case e.State == Held:
		return Lapse
	case e.State == Confirmed:
		return Release
	}
	return 0
}

// Due is the instant the timer that delivers k fires at.
func (e *Entry) Due(k Kind) units.Time {
	if k == Lapse {
		return e.ExpireAt
	}
	return e.Tau
}

// Result is what one Step did.
type Result struct {
	// Entry is the hold after the step; nil for a key the table does not
	// know that the message leaves unknown (a CONFIRM or a timer).
	Entry  *Entry
	Answer Answer
	// Released reports whether capacity came back.
	Released bool
	// Arm is the timer the new state waits on when this step entered it
	// (Entry.Waits), and zero when it entered none or changed nothing.
	Arm Kind
	// Log marks a transition worth recording: a hold booked, refused,
	// confirmed, aborted (a tombstone included), lapsed or released. A
	// duplicate copy and a message the state ignores are not.
	Log bool
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

// Key returns the key filed under the bytes of b: the table's own string,
// which a caller holding the key as bytes off a frame uses without copying
// it.
func (t *Table) Key(b []byte) (string, bool) {
	e, ok := t.byKey[string(b)]
	if !ok {
		return "", false
	}
	return e.Key, true
}

// KeyOf returns the key of the hold that allocated request id.
func (t *Table) KeyOf(id request.ID) (string, bool) {
	key, ok := t.byID[id]
	return key, ok
}

// Step delivers m to the hold under m.Key: it picks the transition the
// message takes from the hold's state, takes it, and reports what it did. It
// is the only way the table changes. Every message is idempotent: a second
// copy changes nothing and releases nothing. One case per row of the truth
// table; a message no case takes leaves the hold as it is.
func (t *Table) Step(m Msg) (Result, error) {
	e, ok := t.byKey[m.Key]
	switch {
	case m.Kind == Reserve && !ok:
		h, err := m.Decide()
		if err != nil {
			return Result{}, err
		}
		h.Key = m.Key
		if h.Reason != "" {
			return Result{Entry: t.refuse(h), Answer: Refused, Log: true}, nil
		}
		h.State, h.Booked = Held, true
		return Result{Entry: t.file(h), Answer: Granted, Arm: Lapse, Log: true}, nil
	case m.Kind == Reserve && e.State == Aborted:
		return Result{Entry: e, Answer: Refused}, nil
	case m.Kind == Reserve:
		return Result{Entry: e, Answer: Granted}, nil
	case m.Kind == Confirm && !ok:
		return Result{Answer: NotFound}, nil
	case m.Kind == Confirm && e.State == Aborted:
		return Result{Entry: e, Answer: Conflict}, nil
	case m.Kind == Confirm && e.State == Held:
		e.State = Confirmed
		return Result{Entry: e, Answer: Committed, Arm: Release, Log: true}, nil
	case m.Kind == Confirm:
		return Result{Entry: e, Answer: Committed}, nil
	case m.Kind == Abort && !ok:
		e = t.refuse(Entry{Key: m.Key, ID: -1, Peer: -1, Reason: m.Reason})
		return Result{Entry: e, Answer: RolledBack, Log: true}, nil
	case m.Kind == Abort && e.State != Aborted:
		return Result{Entry: e, Answer: RolledBack, Released: t.rollback(e), Log: true}, nil
	case m.Kind == Abort:
		return Result{Entry: e, Answer: RolledBack}, nil
	case m.Kind == Lapse && ok && e.State == Held:
		return Result{Entry: e, Released: t.rollback(e), Log: true}, nil
	case m.Kind == Release && ok && e.Waits() == Release:
		t.unbook(e, e.Tau)
		t.retire(e.Key)
		return Result{Entry: e, Released: true, Log: true}, nil
	}
	return Result{Entry: e}, nil
}

func (t *Table) file(h Entry) *Entry {
	e := &h
	t.byKey[e.Key] = e
	if e.ID >= 0 {
		t.byID[e.ID] = e.Key
	}
	return e
}

// refuse files a tombstone: a hold that books nothing and answers every
// later message for its key with h.Reason.
func (t *Table) refuse(h Entry) *Entry {
	h.State, h.Booked = Aborted, false
	e := t.file(h)
	t.retire(e.Key)
	return e
}

// rollback leaves e aborted, returning whatever it still books, and reports
// whether capacity came back.
func (t *Table) rollback(e *Entry) bool {
	released := t.unbook(e, units.Time(math.Inf(-1)))
	e.State = Aborted
	t.retire(e.Key)
	return released
}

// unbook gives back what e still books, at instant at (see Releaser).
func (t *Table) unbook(e *Entry, at units.Time) bool {
	if !e.Booked {
		return false
	}
	t.rel.HoldRelease(e.Dir(), e.Point, e.Sigma, e.Tau, e.BW, at)
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
		switch e.Waits() {
		case Lapse:
			held++
		case Release:
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
