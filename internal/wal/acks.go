package wal

import (
	"sync"
	"time"
)

// FollowerAck is one follower's durably-applied position as seen by the
// primary, plus when it last reported. The position is the follower's
// pull cursor: a follower saves its cursor only after the shipped events
// are applied and persisted locally, so the cursor it sends back — after
// each streamed batch, or on its next pull — doubles as an
// acknowledgement of everything before it.
type FollowerAck struct {
	Pos  Pos       `json:"pos"`
	Seen time.Time `json:"-"`
}

// Acks tracks per-follower acknowledged positions on a primary and lets
// the decide pipeline wait until a frame is replicated to K followers.
// It is its own small monitor (not guarded by the server mutex) because
// waiters park on it for up to a sync-ack deadline while admissions
// continue.
type Acks struct {
	mu    sync.Mutex
	acked map[string]FollowerAck
	// waiters are the Waits parked on the next ack that moves forward.
	waiters parked
	now     func() time.Time
}

// maxAckRows bounds the ack table. A group has a handful of followers, but
// an id is whatever a puller presents, so without a bound every id ever seen
// would stay for the life of the process. Past the cap the least recently
// seen row goes. Losing a row can only lower Quorum(k) — it is the k-th
// largest of fewer positions — so a sync-ack wait may get longer, until the
// evicted follower's next ack puts its row back, but is never falsely
// satisfied.
const maxAckRows = 64

// NewAcks returns an empty tracker. now may be nil (wall clock).
func NewAcks(now func() time.Time) *Acks {
	if now == nil {
		now = time.Now
	}
	return &Acks{
		acked: make(map[string]FollowerAck),
		now:   now,
	}
}

// Record notes that follower id has durably applied everything before
// pos. Acks only ever move forward: a follower that restarts and re-pulls
// from an old cursor must not retract durability already granted to
// waiters. Empty ids are dropped — an anonymous puller cannot take part
// in a quorum.
func (a *Acks) Record(id string, pos Pos) {
	if id == "" {
		return
	}
	a.mu.Lock()
	prev, ok := a.acked[id]
	if !ok && len(a.acked) >= maxAckRows {
		oldest := ""
		for other, fa := range a.acked {
			if oldest == "" || fa.Seen.Before(a.acked[oldest].Seen) {
				oldest = other
			}
		}
		delete(a.acked, oldest)
	}
	if !ok || prev.Pos.Less(pos) {
		a.acked[id] = FollowerAck{Pos: pos, Seen: a.now()}
		a.waiters.wake()
	} else {
		prev.Seen = a.now()
		a.acked[id] = prev
	}
	a.mu.Unlock()
}

// Quorum reports the highest position acknowledged by at least k
// followers — the k-th largest acked position — or the zero Pos when
// fewer than k followers have ever acked (or k <= 0).
func (a *Acks) Quorum(k int) Pos {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.quorumLocked(k)
}

// quorumLocked runs on every wake of every parked waiter, so it allocates
// nothing: the table has at most maxAckRows rows, and the k largest
// positions are kept in descending order in an array on the stack.
func (a *Acks) quorumLocked(k int) Pos {
	if k <= 0 || len(a.acked) < k {
		return Pos{}
	}
	var top [maxAckRows]Pos
	n := 0
	for _, fa := range a.acked {
		i := n
		if n < k {
			n++
		} else if !top[k-1].Less(fa.Pos) {
			continue
		} else {
			i = k - 1
		}
		for ; i > 0 && top[i-1].Less(fa.Pos); i-- {
			top[i] = top[i-1]
		}
		top[i] = fa.Pos
	}
	return top[k-1]
}

// Wait blocks until at least k followers have acknowledged pos or
// beyond, the timeout lapses, or done closes; it reports whether the
// quorum was reached. Stale entries from followers that rebooted under a
// new id can only make the wait harder (they hold an old position),
// never satisfy it falsely. The timeout runs on dl and the wait parks wk,
// which a caller that waits again and again keeps (nil ones are fresh); a
// quorum already reached arms and parks nothing.
func (a *Acks) Wait(done <-chan struct{}, pos Pos, k int, timeout time.Duration, dl *Deadline, wk *Wake) bool {
	if k <= 0 || pos.IsZero() {
		return true // nothing to replicate, or no follower required
	}
	if wk == nil {
		wk = new(Wake)
	}
	ch, ok := a.watch(pos, k, wk)
	if ok {
		return true
	}
	if dl == nil {
		dl = new(Deadline)
	}
	expired := dl.Arm(timeout)
	defer dl.Disarm()
	for {
		select {
		case <-ch:
		case <-expired:
			a.unpark(ch)
			return false
		case <-done:
			a.unpark(ch)
			return false
		}
		if ch, ok = a.watch(pos, k, wk); ok {
			return true
		}
	}
}

// watch reports whether k followers have acknowledged pos, and if not,
// parks wk on the next ack that moves forward and returns its channel.
func (a *Acks) watch(pos Pos, k int, wk *Wake) (chan struct{}, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if q := a.quorumLocked(k); !q.IsZero() && !q.Less(pos) {
		return nil, true
	}
	ch := wk.park()
	a.waiters.add(ch)
	return ch, false
}

// unpark forgets a wait that stopped before it was woken.
func (a *Acks) unpark(ch chan struct{}) {
	a.mu.Lock()
	a.waiters.drop(ch)
	a.mu.Unlock()
}

// Snapshot returns a copy of the per-follower ack table for status and
// metrics answers.
func (a *Acks) Snapshot() map[string]FollowerAck {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]FollowerAck, len(a.acked))
	for id, fa := range a.acked {
		out[id] = fa
	}
	return out
}
