package wal

import "time"

// Deadline is the timer of a waiter that waits again and again — a stream
// between the batches it ships, a sync-ack submit on its followers — made
// once and re-armed for each wait. The module builds with go 1.22's timer
// semantics, under which a timer that fired unreceived keeps its tick, so
// Disarm drains it: the next Arm starts a clean deadline. The zero Deadline
// is ready to arm; it is not safe for concurrent use.
type Deadline struct{ t *time.Timer }

// Arm starts a deadline d from now and returns the channel it ticks on.
func (dl *Deadline) Arm(d time.Duration) <-chan time.Time {
	if dl.t == nil {
		dl.t = time.NewTimer(d)
	} else {
		dl.t.Reset(d)
	}
	return dl.t.C
}

// Disarm stops the deadline Arm started and takes the tick it left behind,
// if it fired and nobody received it.
func (dl *Deadline) Disarm() {
	if !dl.t.Stop() {
		select {
		case <-dl.t.C:
		default:
		}
	}
}

// Wake is the channel a waiter that waits again and again is woken on — a
// stream between the batches it ships, a sync-ack submit on its followers —
// made once and parked with a notifier for each wait. A notifier signals
// the waiters parked with it and forgets them; it never closes a channel,
// so nothing is made per wake. The zero Wake is ready to park; it is not
// safe for concurrent use.
type Wake struct{ c chan struct{} }

// park readies w's channel for one wait and returns it: a signal left from
// an earlier wait, which a timeout cut short, is taken first. Callers hold
// the notifier's lock, so every signal after this one is a wake of this
// wait.
func (w *Wake) park() chan struct{} {
	if w.c == nil {
		w.c = make(chan struct{}, 1)
	}
	select {
	case <-w.c:
	default:
	}
	return w.c
}

// parked is a notifier's list of the channels parked with it, under the
// notifier's lock; once it has grown to the number of waiters, neither a
// park nor a wake allocates.
type parked []chan struct{}

func (p *parked) add(c chan struct{}) { *p = append(*p, c) }

// wake signals every parked waiter and forgets them. A waiter's channel
// holds one signal and is parked at most once, so no send blocks.
func (p *parked) wake() {
	for i, c := range *p {
		select {
		case c <- struct{}{}:
		default:
		}
		(*p)[i] = nil
	}
	*p = (*p)[:0]
}

// drop forgets c, if it is parked: a waiter that stops waiting before it
// was woken (a timeout, or done) leaves nothing behind.
func (p *parked) drop(c chan struct{}) {
	s := *p
	for i := range s {
		if s[i] == c {
			last := len(s) - 1
			s[i], s[last] = s[last], nil
			*p = s[:last]
			return
		}
	}
}
