package wal

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestAcksQuorumOrdering(t *testing.T) {
	a := NewAcks(nil)
	if got := a.Quorum(1); !got.IsZero() {
		t.Fatalf("empty tracker quorum = %v, want zero", got)
	}
	a.Record("f1", Pos{Seg: 1, Off: 100})
	a.Record("f2", Pos{Seg: 1, Off: 300})
	a.Record("f3", Pos{Seg: 2, Off: 50})
	for _, tc := range []struct {
		k    int
		want Pos
	}{
		{1, Pos{Seg: 2, Off: 50}},  // fastest follower
		{2, Pos{Seg: 1, Off: 300}}, // majority of 3
		{3, Pos{Seg: 1, Off: 100}}, // slowest follower
		{4, Pos{}},                 // more than we have
		{0, Pos{}},
	} {
		if got := a.Quorum(tc.k); got != tc.want {
			t.Fatalf("Quorum(%d) = %v, want %v", tc.k, got, tc.want)
		}
	}
}

func TestAcksNeverRetreat(t *testing.T) {
	a := NewAcks(nil)
	a.Record("f1", Pos{Seg: 3, Off: 10})
	// A restarted follower re-pulling from an older cursor must not
	// retract durability already granted.
	a.Record("f1", Pos{Seg: 1, Off: 0})
	if got := a.Quorum(1); got != (Pos{Seg: 3, Off: 10}) {
		t.Fatalf("ack retreated to %v", got)
	}
}

func TestAcksAnonymousIgnored(t *testing.T) {
	a := NewAcks(nil)
	a.Record("", Pos{Seg: 9, Off: 9})
	if got := a.Quorum(1); !got.IsZero() {
		t.Fatalf("anonymous ack counted: %v", got)
	}
}

func TestAcksWaitSatisfiedImmediately(t *testing.T) {
	a := NewAcks(nil)
	a.Record("f1", Pos{Seg: 1, Off: 64})
	a.Record("f2", Pos{Seg: 1, Off: 64})
	if !a.Wait(nil, Pos{Seg: 1, Off: 64}, 2, time.Millisecond, nil, nil) {
		t.Fatal("already-acked position did not satisfy the wait")
	}
	// k<=0 and the zero position are trivially replicated.
	if !a.Wait(nil, Pos{Seg: 5, Off: 5}, 0, 0, nil, nil) {
		t.Fatal("k=0 wait blocked")
	}
	if !a.Wait(nil, Pos{}, 3, 0, nil, nil) {
		t.Fatal("zero-pos wait blocked")
	}
}

func TestAcksWaitWakesOnRecord(t *testing.T) {
	a := NewAcks(nil)
	target := Pos{Seg: 1, Off: 128}
	done := make(chan bool, 1)
	var ready sync.WaitGroup
	ready.Add(1)
	go func() {
		ready.Done()
		done <- a.Wait(nil, target, 2, 5*time.Second, nil, nil)
	}()
	ready.Wait()
	a.Record("f1", target)
	select {
	case <-done:
		t.Fatal("wait satisfied with one ack when two were required")
	case <-time.After(20 * time.Millisecond):
	}
	a.Record("f2", Pos{Seg: 1, Off: 200}) // past the target also counts
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("wait returned false after quorum was reached")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait never woke after the second ack")
	}
}

func TestAcksWaitTimesOut(t *testing.T) {
	a := NewAcks(nil)
	a.Record("f1", Pos{Seg: 1, Off: 10})
	start := time.Now()
	if a.Wait(nil, Pos{Seg: 1, Off: 999}, 1, 30*time.Millisecond, nil, nil) {
		t.Fatal("unreplicated position satisfied the wait")
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("wait returned before the deadline")
	}
}

func TestAcksWaitHonorsDone(t *testing.T) {
	a := NewAcks(nil)
	stop := make(chan struct{})
	close(stop)
	if a.Wait(stop, Pos{Seg: 1, Off: 1}, 1, time.Minute, nil, nil) {
		t.Fatal("closed done channel reported quorum")
	}
}

func TestAcksSnapshotIsCopy(t *testing.T) {
	now := time.Unix(42, 0)
	a := NewAcks(func() time.Time { return now })
	a.Record("f1", Pos{Seg: 1, Off: 7})
	snap := a.Snapshot()
	if fa, ok := snap["f1"]; !ok || fa.Pos != (Pos{Seg: 1, Off: 7}) || !fa.Seen.Equal(now) {
		t.Fatalf("snapshot = %+v", snap)
	}
	snap["f2"] = FollowerAck{Pos: Pos{Seg: 9, Off: 9}}
	if len(a.Snapshot()) != 1 {
		t.Fatal("mutating the snapshot leaked into the tracker")
	}
}

func TestSaveLoadVote(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	if v, err := l.LoadVote(); err != nil || v != (Vote{}) {
		t.Fatalf("empty dir: vote %+v err %v", v, err)
	}
	want := Vote{Epoch: 4, Candidate: "node-b"}
	if err := l.SaveVote(want); err != nil {
		t.Fatal(err)
	}
	got, err := l.LoadVote()
	if err != nil || got != want {
		t.Fatalf("round-trip vote %+v err %v, want %+v", got, err, want)
	}
	// Overwrite: the latest vote wins (a node votes once per epoch but
	// across epochs the file advances).
	want = Vote{Epoch: 5, Candidate: "node-c"}
	if err := l.SaveVote(want); err != nil {
		t.Fatal(err)
	}
	if got, _ := l.LoadVote(); got != want {
		t.Fatalf("overwritten vote = %+v, want %+v", got, want)
	}
}

// TestAcksTableIsBounded: ids are whatever a puller presents, so a thousand
// of them must not leave a thousand rows. The follower that keeps pulling
// keeps its row through the flood and still satisfies a sync-ack wait; the
// strangers' rows, however far ahead they claim to be, are what goes.
func TestAcksTableIsBounded(t *testing.T) {
	now := time.Unix(0, 0)
	a := NewAcks(func() time.Time { now = now.Add(time.Millisecond); return now })
	target := Pos{Seg: 1, Off: 500}
	a.Record("follower", Pos{Seg: 1, Off: 100})
	for i := 0; i < 1000; i++ {
		a.Record(fmt.Sprintf("stranger-%d", i), Pos{Seg: 1, Off: 50})
		if i%(maxAckRows/2) == 0 {
			a.Record("follower", Pos{Seg: 1, Off: 100}) // its long-poll came back empty
		}
	}
	rows := a.Snapshot()
	if len(rows) > maxAckRows {
		t.Fatalf("%d rows after 1000 distinct ids, want at most %d", len(rows), maxAckRows)
	}
	if fa, ok := rows["follower"]; !ok || fa.Pos != (Pos{Seg: 1, Off: 100}) {
		t.Fatalf("the follower that kept pulling lost its row: %+v", rows["follower"])
	}
	if _, ok := rows["stranger-0"]; ok {
		t.Fatal("the least recently seen row survived the flood")
	}
	if a.Wait(nil, target, 1, 0, nil, nil) {
		t.Fatal("wait satisfied before the follower acked the target")
	}
	a.Record("follower", target)
	if !a.Wait(nil, target, 1, time.Second, nil, nil) {
		t.Fatal("the follower's ack no longer satisfies the wait")
	}
	if q := a.Quorum(maxAckRows + 1); !q.IsZero() {
		t.Fatalf("Quorum(%d) = %v over a table of %d rows", maxAckRows+1, q, maxAckRows)
	}
}

// Quorum runs on every wake of every parked sync-ack waiter: it must
// allocate nothing, and it must still be the k-th largest acked position.
func TestAcksQuorumAllocFreeKthLargest(t *testing.T) {
	a := NewAcks(nil)
	var all []Pos
	for i := 0; i < maxAckRows; i++ {
		p := Pos{Seg: uint64(1 + i*7%5), Off: int64(i * 37 % 101)}
		a.Record(fmt.Sprintf("f%d", i), p)
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool { return all[j].Less(all[i]) })
	for k := 1; k <= maxAckRows; k++ {
		if got := a.Quorum(k); got != all[k-1] {
			t.Fatalf("Quorum(%d) = %v, want %v", k, got, all[k-1])
		}
	}
	if n := testing.AllocsPerRun(100, func() { a.Quorum(maxAckRows / 2) }); n != 0 {
		t.Fatalf("Quorum allocates %.1f objects, want 0", n)
	}
}

// TestAcksRecordWakesOnlyWaiters: an ack that moves forward with no waiter
// parked allocates nothing — there is no wake channel to replace — and a
// parked Wait is still woken by the one that reaches its position.
func TestAcksRecordWakesOnlyWaiters(t *testing.T) {
	a := NewAcks(nil)
	off := int64(0)
	a.Record("f1", Pos{Seg: 1, Off: off})
	if n := testing.AllocsPerRun(100, func() {
		off++
		a.Record("f1", Pos{Seg: 1, Off: off})
	}); n != 0 {
		t.Fatalf("Record with no waiter allocates %.1f objects, want 0", n)
	}
	target := Pos{Seg: 2}
	done := make(chan bool, 1)
	go func() { done <- a.Wait(nil, target, 1, 5*time.Second, nil, nil) }()
	for parked := false; !parked; {
		time.Sleep(time.Millisecond)
		a.mu.Lock()
		parked = len(a.waiters) > 0
		a.mu.Unlock()
	}
	a.Record("f1", target)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("the parked Wait returned false after its ack")
		}
	case <-time.After(4 * time.Second):
		t.Fatal("the parked Wait was never woken")
	}
}

// TestAcksWaitReusesItsDeadline: a wait whose quorum is already acked
// allocates nothing and arms no timer, and the caller's deadline, re-armed
// wait after wait, starts clean each time: the tick a timed-out wait left
// behind does not cut the next wait short.
func TestAcksWaitReusesItsDeadline(t *testing.T) {
	a := NewAcks(nil)
	a.Record("f1", Pos{Seg: 1, Off: 64})
	var dl Deadline
	var wk Wake
	if n := testing.AllocsPerRun(100, func() {
		if !a.Wait(nil, Pos{Seg: 1, Off: 64}, 1, time.Second, &dl, &wk) {
			panic("an acked position did not satisfy the wait")
		}
	}); n != 0 {
		t.Fatalf("a satisfied Wait allocates %.1f objects, want 0", n)
	}
	if dl.t != nil || wk.c != nil {
		t.Fatal("a satisfied Wait armed the deadline or parked")
	}
	target := Pos{Seg: 1, Off: 999}
	for range 3 {
		if a.Wait(nil, target, 1, time.Millisecond, &dl, &wk) {
			t.Fatal("a wait on an unacked position succeeded")
		}
	}
	time.Sleep(5 * time.Millisecond) // let a tick go stale, were one left
	go func() {
		time.Sleep(50 * time.Millisecond)
		a.Record("f1", target)
	}()
	if !a.Wait(nil, target, 1, 5*time.Second, &dl, &wk) {
		t.Fatal("a stale tick of the reused deadline ended the wait before its ack")
	}
}
