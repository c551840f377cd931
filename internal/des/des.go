// Package des is a minimal discrete-event simulation kernel.
//
// The on-line heuristics of the paper (Algorithms 2 and 3), the overlay
// control plane of §5.4 and the fluid-TCP baseline are all event-driven
// processes: request arrivals, interval ticks, transfer completions and
// signalling messages. This kernel gives them a shared clock and a stable
// priority queue of timed events: a 4-ary min-heap of (instant, item)
// slots.
//
// Determinism: events scheduled for the same instant fire in scheduling
// order (FIFO among ties), so simulation runs are reproducible regardless
// of map iteration or goroutine scheduling — the kernel is strictly
// single-threaded by design.
package des

import (
	"fmt"

	"gridbw/internal/units"
)

// Event is a callback to run at a simulated instant. The callback receives
// the simulator so it can schedule further events.
type Event func(sim *Simulator)

// Handle identifies a scheduled event so it can be cancelled. Items are
// recycled on an internal free list once fired or drained; the generation
// stamp makes a stale Handle (to an already recycled item) an exact no-op
// instead of an aliased cancellation.
type Handle struct {
	item *item
	gen  uint64
}

type item struct {
	seq       uint64 // scheduling order: breaks a tie of instants
	fn        Event
	cancelled bool
	queued    bool   // in the queue; false once popped
	gen       uint64 // bumped on recycle; Handles carry the gen they saw
	next      *item  // free-list link
}

// slot is one entry of the queue: the event's instant beside its item, so a
// sift compares instants without leaving the queue's array and reads an
// item only to break a tie.
type slot struct {
	at units.Time
	it *item
}

// before is the queue's order: by instant, then by scheduling order, so
// that events at one instant fire FIFO.
func (a slot) before(b slot) bool {
	return a.at < b.at || a.at == b.at && a.it.seq < b.it.seq
}

// Simulator owns the event queue and the simulated clock.
type Simulator struct {
	now     units.Time
	queue   []slot // a 4-ary min-heap in (instant, scheduling order)
	seq     uint64
	running bool
	stopped bool
	// Trace, when non-nil, is called before each event fires.
	Trace func(at units.Time)
	fired uint64
	free  *item // recycled items; the kernel is single-threaded, no lock
}

// recycle returns a popped item to the free list. Bumping the generation
// first invalidates every outstanding Handle to it.
func (s *Simulator) recycle(it *item) {
	it.gen++
	it.fn = nil
	it.next = s.free
	s.free = it
}

// arity is the queue's fan-out. A 4-ary heap is half as deep as a binary
// one, and the four children a sift-down compares are 64 adjacent bytes of
// the queue's array, where a heap of item pointers chases one item per
// comparison.
const arity = 4

// push adds e to the queue, sifting it up from the end.
func (s *Simulator) push(e slot) {
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	s.queue = q
}

// pop removes and returns the head of a non-empty queue: the last slot
// takes its place and sifts down.
func (s *Simulator) pop() slot {
	q := s.queue
	head := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = slot{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := arity*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < min(c+arity, n); j++ {
				if q[j].before(q[m]) {
					m = j
				}
			}
			if !q[m].before(last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	s.queue = q
	head.it.queued = false
	return head
}

// New returns a simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// Now reports the current simulated time.
func (s *Simulator) Now() units.Time { return s.now }

// Fired reports how many events have been executed.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending reports how many events are scheduled (including cancelled ones
// not yet drained).
func (s *Simulator) Pending() int { return len(s.queue) }

// At schedules fn to run at the absolute instant at. Scheduling in the past
// panics: it would silently reorder causality.
func (s *Simulator) At(at units.Time, fn Event) Handle {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("des: nil event")
	}
	it := s.free
	if it != nil {
		s.free = it.next
		*it = item{seq: s.seq, fn: fn, queued: true, gen: it.gen}
	} else {
		it = &item{seq: s.seq, fn: fn, queued: true}
	}
	s.seq++
	s.push(slot{at, it})
	return Handle{item: it, gen: it.gen}
}

// After schedules fn to run delay after the current instant.
func (s *Simulator) After(delay units.Time, fn Event) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an already
// fired or already cancelled event is a no-op; Cancel reports whether the
// event was actually descheduled.
func (s *Simulator) Cancel(h Handle) bool { return h.Cancel() }

// Cancel is Simulator.Cancel for a holder of h that does not hold the
// simulator: a handle reaches the one item it schedules.
func (h Handle) Cancel() bool {
	if h.item == nil || h.item.gen != h.gen || h.item.cancelled || !h.item.queued {
		return false
	}
	h.item.cancelled = true
	return true
}

// Next reports the timestamp of the earliest pending non-cancelled event,
// if any. Cancelled items at the head of the queue are drained as a side
// effect. It lets a real-time driver (the gridbwd expiry loop) sleep until
// the next deadline instead of polling.
func (s *Simulator) Next() (units.Time, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].it.cancelled {
			s.recycle(s.pop().it)
			continue
		}
		return s.queue[0].at, true
	}
	return 0, false
}

// Stop halts the run loop after the current event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue drains or Stop is called. It returns
// the final clock value.
func (s *Simulator) Run() units.Time {
	return s.RunUntil(units.Time(-1))
}

// RunUntil executes events with timestamp <= horizon (any horizon < 0 means
// no limit) until the queue drains or Stop is called. Events beyond the
// horizon remain queued; the clock advances to the horizon if it is set and
// events remain.
func (s *Simulator) RunUntil(horizon units.Time) units.Time {
	if s.running {
		panic("des: re-entrant Run")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	for len(s.queue) > 0 && !s.stopped {
		if horizon >= 0 && s.queue[0].at > horizon {
			s.now = horizon
			return s.now
		}
		s.fire(s.pop())
	}
	if horizon >= 0 && s.now < horizon && !s.stopped {
		s.now = horizon
	}
	return s.now
}

// Step executes exactly one non-cancelled event, if any, and reports
// whether one fired.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		if s.fire(s.pop()) {
			return true
		}
	}
	return false
}

// fire runs a popped event, unless it was cancelled, and recycles its item;
// it reports whether the event ran.
func (s *Simulator) fire(e slot) bool {
	if e.it.cancelled {
		s.recycle(e.it)
		return false
	}
	s.now = e.at
	if s.Trace != nil {
		s.Trace(s.now)
	}
	s.fired++
	e.it.fn(s)
	s.recycle(e.it)
	return true
}

// Ticker schedules fn at start, start+period, ... until fn returns false or
// the horizon (if >= 0) is exceeded. It is the substrate for the
// interval-based WINDOW heuristic's t_step loop.
func (s *Simulator) Ticker(start, period, horizon units.Time, fn func(sim *Simulator, tick int) bool) {
	if period <= 0 {
		panic(fmt.Sprintf("des: non-positive ticker period %v", period))
	}
	var tick int
	var schedule func(at units.Time)
	schedule = func(at units.Time) {
		if horizon >= 0 && at > horizon {
			return
		}
		s.At(at, func(sim *Simulator) {
			cont := fn(sim, tick)
			tick++
			if cont {
				schedule(at + period)
			}
		})
	}
	schedule(start)
}
