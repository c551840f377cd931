// Package state is gridbwd's reservation state machine: everything one WAL
// event describes — the capacity ledger, the reservation registry, the
// cross-shard hold table, the idempotency cache, the ID allocator and the
// counters — and the one function per transition that changes it. The live
// calls (Accept, Reject, Cancel, HoldReserve, HoldStep and the timers they
// arm) and the one replay function (Apply), which a follower, every boot and
// every snapshot install run on records, are the only writers, so a primary
// and the follower that will replace it run the same code for every change.
// Hold state changes through internal/hold's Step alone.
//
// The machine knows nothing of HTTP, the WAL, the replication role or the
// wall clock: transitions take the service time they happen at, and the
// daemon reaches it through two seams, Arm and Log. Callers serialize;
// error texts keep the daemon's "server:" prefix, since clients see them.
package state

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"gridbw/internal/alloc"
	"gridbw/internal/des"
	"gridbw/internal/hold"
	"gridbw/internal/metrics"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// State is a reservation's lifecycle position, named as the wire names it.
type State string

const (
	Booked    State = wire.StateBooked
	Active    State = wire.StateActive
	Expired   State = wire.StateExpired
	Cancelled State = wire.StateCancelled
	Rejected  State = wire.StateRejected
)

// Decision is the answer to a submission or a lookup.
type Decision struct {
	ID       request.ID
	Accepted bool
	State    State
	// Rate, Sigma and Tau describe the grant of an accepted reservation.
	Rate  units.Bandwidth
	Sigma units.Time
	Tau   units.Time
	// Reason explains a rejection.
	Reason string
}

// Reservation is the full record of one live grant, exposed for
// independent verification (tests replay these into a fresh ledger).
type Reservation struct {
	Req   request.Request
	Grant request.Grant
	State State
}

var (
	// ErrNotFound reports an unknown (or evicted) reservation ID.
	ErrNotFound = errors.New("server: no such reservation")
	// ErrFinished reports a cancel of an already expired or cancelled
	// reservation.
	ErrFinished = errors.New("server: reservation already finished")
)

type entry struct {
	// req is the request as granted: its window is the grant's [σ, τ] on
	// every route, whatever window the submission asked for.
	req   request.Request
	grant request.Grant
	state State // Active while live (Booked derived from the clock), else terminal
	// expire is the entry's one live expiry timer, if any: arming cancels
	// the timer it replaces and finish cancels it, so a timer that fires
	// belongs to the entry's current life (expire).
	expire des.Handle
	// fire is this entry's expiry callback, bound once when the entry is
	// made, so an accept schedules no new closure.
	fire des.Event
}

// Slot is one idempotency-cache slot: filed unsettled when a keyed
// submission claims its key, so a concurrent retry waits instead of booking
// twice, and settled with the decision (or error). Slots are recycled: a
// slot goes back on the machine's free list once it is settled and nothing
// holds it any more (release), so filing a key allocates nothing once the
// cache is warm.
type Slot struct {
	// done is closed once d/err are valid. Claim makes it only when a
	// duplicate waits on the unsettled slot; a slot settled with no waiter,
	// and every slot filed from a record, shares settled instead.
	done chan struct{}
	d    Decision
	err  error
	// refs counts the slot's holders, under the caller's lock: its entry in
	// the eviction queue, the claiming submission until it settles the slot,
	// and each duplicate until it has resolved it.
	refs int
}

// Wait blocks until the slot is settled. Callers must not hold the lock
// that serializes the machine: the settling submission needs it.
func (sl *Slot) Wait() { <-sl.done }

func (sl *Slot) settled() bool {
	select {
	case <-sl.done: // a nil done (unsettled, nobody waiting) never receives
		return true
	default:
		return false
	}
}

// settled is the done channel every slot settled with no waiter shares: a
// recorded decision is settled from the start.
var settled = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// filed is one entry of the idempotency cache's eviction queue: the key and
// the slot this entry filed under it. The key may have been filed again
// since (a retry after an error settled the first slot), so eviction drops
// the map entry only while it still points at this slot.
type filed struct {
	key string
	sl  *Slot
}

// Machine is the reservation state of one daemon and its transitions.
type Machine struct {
	// Arm schedules fn at service time at and returns the handle that
	// cancels it; Log records the event a live transition decided. The
	// daemon sets both once; a machine nothing set them on (one a snapshot
	// installs onto) arms and logs nothing.
	Arm func(at units.Time, fn des.Event) des.Handle
	Log func(ev trace.Event)

	// Stats are the lifetime counters, the daemon's own counts included.
	Stats  metrics.Online
	NextID request.ID // the next request ID to allocate

	// ledger has one lock per access point: the admission step books
	// through it without the caller's lock.
	ledger *alloc.Sharded
	pol    policy.Policy // the ingress side of a hold proposes with it
	// ptx is the point lock a proposal books through, reused from one
	// RESERVE to the next.
	ptx alloc.PointTx
	// reserving is the live RESERVE HoldReserve is stepping, and
	// decideReserving its decision, bound once.
	reserving       reserving
	decideReserving func() (hold.Entry, error)
	// timers are the hold timers that fired, free for the next arm.
	timers []*holdTimer
	// entries are evicted entries, free for the next reservation: the
	// steady-state accept path allocates nothing.
	entries []*entry
	// slots are idempotency slots nothing holds any more, free for the next
	// key filed.
	slots []*Slot
	// retention bounds the finished FIFO, the resolved-hold FIFO and the
	// idempotency cache.
	retention int

	resv      map[request.ID]*entry
	finished  fifo[*entry] // eviction queue of terminal entries
	holds     *hold.Table
	idem      map[string]*Slot
	idemOrder fifo[filed] // eviction queue of idem
}

// New returns an empty machine for net that proposes holds with pol and
// retains retention finished reservations, resolved holds and keys.
func New(net *topology.Network, pol policy.Policy, retention int) *Machine {
	ledger := alloc.NewSharded(net)
	m := &Machine{
		Arm:       func(units.Time, des.Event) des.Handle { return des.Handle{} },
		Log:       func(trace.Event) {},
		ledger:    ledger,
		pol:       pol,
		retention: retention,
		resv:      make(map[request.ID]*entry),
		holds:     hold.NewTable(ledger, retention),
		idem:      make(map[string]*Slot),
	}
	m.decideReserving = func() (hold.Entry, error) { return m.decide(m.reserving.now, m.reserving.req) }
	return m
}

// Ledger is the capacity ledger the admission step books through.
func (m *Machine) Ledger() *alloc.Sharded { return m.ledger }

// Accept publishes an admitted reservation whose grant the admission step
// already booked: the entry becomes visible, its expiry is armed at τ and the
// accept is logged with the idempotency key it was submitted under.
func (m *Machine) Accept(now units.Time, r request.Request, g request.Grant, key string) Decision {
	e := m.register(r, g)
	m.armExpiry(e)
	m.Log(resvEvent(now, trace.EventAccept, e.req, g, "", key))
	return m.decision(e, now)
}

// Reject counts and logs a refused request.
func (m *Machine) Reject(now units.Time, r request.Request, reason, key string) Decision {
	m.Stats.RecordReject()
	m.Log(resvEvent(now, trace.EventReject, r, request.Grant{}, reason, key))
	return Decision{ID: r.ID, State: Rejected, Reason: reason}
}

// Cancel revokes live reservation id at now, returning what is left of its
// grant: ErrNotFound for an ID the registry does not hold, ErrFinished (with
// its decision) for one already expired or cancelled.
func (m *Machine) Cancel(now units.Time, id request.ID) (Decision, error) {
	e, ok := m.resv[id]
	if !ok {
		return Decision{}, ErrNotFound
	}
	if e.state != Active {
		return m.decision(e, now), ErrFinished
	}
	m.finish(e, Cancelled, now)
	m.Log(resvEvent(now, trace.EventCancel, e.req, e.grant, "", ""))
	return m.decision(e, now), nil
}

// expire is e's timer at τ. It probes no map: the timer that fires is e's
// one live timer (entry.expire) — finish cancels it and arming cancels the
// one it replaces — so e is in its current life, the registry's entry for
// its ID. The state check keeps a timer an Arm seam could not cancel a
// no-op.
func (m *Machine) expire(e *entry, now units.Time) {
	if e.state != Active {
		return
	}
	m.finish(e, Expired, now)
	m.Log(resvEvent(now, trace.EventExpire, e.req, e.grant, "", ""))
}

// Lookup reports the decision record of a known reservation.
func (m *Machine) Lookup(now units.Time, id request.ID) (Decision, error) {
	e, ok := m.resv[id]
	if !ok {
		return Decision{}, ErrNotFound
	}
	return m.decision(e, now), nil
}

func (m *Machine) decision(e *entry, now units.Time) Decision {
	return Decision{
		ID: e.req.ID, Accepted: true, State: liveState(e, now),
		Rate: e.grant.Bandwidth, Sigma: e.grant.Sigma, Tau: e.grant.Tau,
	}
}

// liveState derives booked vs active from the clock.
func liveState(e *entry, now units.Time) State {
	if e.state != Active {
		return e.state
	}
	if now < e.grant.Sigma {
		return Booked
	}
	return Active
}

// Live returns the requests and grants holding capacity, in ID order.
func (m *Machine) Live(now units.Time) []Reservation {
	var out []Reservation
	for _, e := range m.resv {
		if e.state == Active {
			out = append(out, Reservation{Req: e.req, Grant: e.grant, State: liveState(e, now)})
		}
	}
	slices.SortFunc(out, func(a, b Reservation) int { return cmp.Compare(a.Req.ID, b.Req.ID) })
	return out
}

// ArmTimers arms every timer the state waits on — each live reservation's
// expiry, each held hold's TTL, each confirmed hold's release at τ — for a
// daemon taking over state built while it armed nothing. It reports how
// many it asked Arm for.
func (m *Machine) ArmTimers() int {
	armed := 0
	for _, e := range m.resv {
		if e.state == Active {
			m.armExpiry(e)
			armed++
		}
	}
	for _, e := range m.holds.All() {
		if k := e.Waits(); k != 0 {
			m.armHold(e, k)
			armed++
		}
	}
	return armed
}

// armExpiry arms e's expiry at τ in place of the timer e held, if any, so
// that an entry never has two live timers: ArmTimers re-arms every live
// entry, also one a primary armed already.
func (m *Machine) armExpiry(e *entry) {
	e.expire.Cancel()
	e.expire = m.Arm(e.grant.Tau, e.fire)
}

// Claim returns the slot filed under key and true, or files a fresh
// unsettled slot under it and returns that and false: the caller owns the
// decision and must Settle it. A caller handed a filed slot holds it until
// it Resolves it.
func (m *Machine) Claim(key string) (*Slot, bool) {
	if sl, ok := m.idem[key]; ok {
		m.Stats.RecordIdempotentHit()
		if sl.done == nil {
			sl.done = make(chan struct{}) // the first duplicate to wait on it
		}
		sl.refs++
		return sl, true
	}
	sl := m.slot()
	sl.refs = 1
	m.remember(key, sl)
	return sl, false
}

// Settle fills the slot claimed under key, waking every retry blocked on
// it, and ends the claimer's hold on it. Decisions stay cached; an error is
// dropped from the cache so a corrected retry re-attempts instead of
// replaying it.
func (m *Machine) Settle(key string, sl *Slot, d Decision, err error) {
	sl.d, sl.err = d, err
	if sl.done == nil {
		sl.done = settled
	} else {
		close(sl.done)
	}
	if err != nil {
		if cur, ok := m.idem[key]; ok && cur == sl {
			delete(m.idem, key)
		}
	}
	m.release(sl)
}

// Resolve answers a settled slot at now the way a fresh Lookup would: an
// accepted reservation the registry still holds reports its state now, one
// it no longer retains finished long ago. It ends the caller's hold on sl,
// which Claim handed it.
func (m *Machine) Resolve(now units.Time, sl *Slot) (Decision, error) {
	d, err := sl.d, sl.err
	m.release(sl)
	if err != nil {
		return Decision{}, err
	}
	if e, live := m.resv[d.ID]; live && d.Accepted {
		d = m.decision(e, now)
	} else if d.Accepted {
		d.State = Expired
	}
	return d, nil
}

// slot takes a slot off the free list, or makes one.
func (m *Machine) slot() *Slot {
	if n := len(m.slots); n > 0 {
		sl := m.slots[n-1]
		m.slots = m.slots[:n-1]
		return sl
	}
	return new(Slot)
}

// release drops one hold on sl; the last one puts it back on the free list.
// Only a settled slot can lose its last hold: the claimer's ends at Settle.
func (m *Machine) release(sl *Slot) {
	if sl.refs--; sl.refs == 0 {
		*sl = Slot{}
		m.slots = append(m.slots, sl)
	}
}

// remember files an idempotency-cache slot under its key, bounded by the
// same FIFO retention as finished reservations. The queue entry holds the
// slot until it is evicted.
func (m *Machine) remember(key string, sl *Slot) {
	m.idem[key] = sl
	sl.refs++
	m.idemOrder.push(filed{key, sl})
	for m.idemOrder.len() > m.retention {
		old := m.idemOrder.pop()
		if m.idem[old.key] == old.sl {
			delete(m.idem, old.key)
		}
		m.release(old.sl)
	}
}

// fileKey files a recorded decision under the key it carried, unless the key
// is already filed (a re-delivered record).
func (m *Machine) fileKey(key string, d Decision) {
	if key == "" {
		return
	}
	if _, ok := m.idem[key]; !ok {
		sl := m.slot()
		sl.done, sl.d = settled, d
		m.remember(key, sl)
	}
}

// entry takes an evicted entry off the free list, or makes one with its
// expiry callback bound.
func (m *Machine) entry() *entry {
	if n := len(m.entries); n > 0 {
		e := m.entries[n-1]
		m.entries = m.entries[:n-1]
		return e
	}
	e := new(entry)
	e.fire = func(sim *des.Simulator) { m.expire(e, sim.Now()) }
	return e
}

// register files a granted reservation whose capacity is booked — by the
// live admission step under its pair lock, or by restore.
func (m *Machine) register(r request.Request, g request.Grant) *entry {
	e := m.entry()
	r.Start, r.Finish = g.Sigma, g.Tau
	e.req, e.grant, e.state = r, g, Active
	m.resv[r.ID] = e
	m.Stats.RecordAccept(g.Bandwidth, r.Volume)
	return e
}

// restore books a recorded grant and registers it: how replay re-creates a
// reservation. The ledger re-checks equation (1), so a record that
// over-commits a point is refused with nothing changed.
func (m *Machine) restore(r request.Request, g request.Grant) (*entry, error) {
	net := m.ledger.Network()
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
	if err := m.ledger.Reserve(r, g); err != nil {
		return nil, err
	}
	return m.register(r, g), nil
}

// finish ends a live reservation — to is Cancelled or Expired — cancels its
// timer and returns its capacity: a cancel what is left of the grant from
// now, an expiry at τ, where its whole span lies behind the profiles' new
// floor and nothing is walked (alloc.Sharded.Revoke).
func (m *Machine) finish(e *entry, to State, now units.Time) {
	e.expire.Cancel()
	at := now
	if to == Expired {
		at = e.grant.Tau
	}
	m.ledger.Revoke(e.req, e.grant, at)
	e.state = to
	if to == Cancelled {
		m.Stats.RecordCancel()
	} else {
		m.Stats.RecordExpire()
	}
	m.finished.push(e)
	for m.finished.len() > m.retention {
		// A finished entry stays the registry's until its eviction: an ID
		// is registered again only after that.
		old := m.finished.pop()
		delete(m.resv, old.req.ID)
		// Terminal and evicted: its expiry timer fired or was cancelled
		// (finish), and nothing outside the caller's lock holds entries, so
		// the record can be recycled.
		old.req, old.grant, old.state, old.expire = request.Request{}, request.Grant{}, "", des.Handle{}
		m.entries = append(m.entries, old)
	}
}

// Verify audits equation (1) twice over: first the sharded profiles
// themselves (all shards locked in the global order, one consistent cut),
// then an independent replay of the live registry into a fresh ledger — if
// the recorded grants could not be re-admitted, the shards and the registry
// have diverged.
func (m *Machine) Verify() error {
	if err := m.ledger.CheckInvariant(); err != nil {
		return err
	}
	fresh := alloc.NewSharded(m.ledger.Network())
	for _, r := range m.Live(0) {
		if err := fresh.Reserve(r.Req, r.Grant); err != nil {
			return fmt.Errorf("server: live registry fails replay: %w", err)
		}
	}
	return fresh.CheckInvariant()
}
