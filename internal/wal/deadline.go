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
