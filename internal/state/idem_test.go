package state

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/trace"
)

// claimSettle files key as a fresh claim and settles it with d.
func claimSettle(t *testing.T, m *Machine, key string, d Decision) {
	t.Helper()
	sl, filed := m.Claim(key)
	if filed {
		t.Fatalf("key %q already filed", key)
	}
	m.Settle(key, sl, d, nil)
}

// TestRefiledKeyKeepsItsRetention files a key, settles it with an error (so
// a corrected retry may re-attempt), and files it again. The key then sits
// in the eviction queue twice; evicting its first, failed entry must not
// drop the retry's slot, which keeps the full retention of its own entry —
// and a snapshot lists the key once, where that entry stands.
func TestRefiledKeyKeepsItsRetention(t *testing.T) {
	m := New(testNet(t), policy.MinRate(), 3)
	sl, _ := m.Claim("k")
	m.Settle("k", sl, Decision{}, errors.New("closed"))
	retry := Decision{ID: 1, State: Rejected, Reason: "capacity saturated"}
	claimSettle(t, m, "k", retry)
	claimSettle(t, m, "a", Decision{ID: 2, State: Rejected, Reason: "r"})
	claimSettle(t, m, "b", Decision{ID: 3, State: Rejected, Reason: "r"}) // evicts the failed entry

	var keys []string
	for _, ev := range m.Events(0) {
		keys = append(keys, ev.Key)
	}
	if fmt.Sprint(keys) != "[k a b]" {
		t.Fatalf("snapshot lists keys %v, want [k a b]", keys)
	}
	got, filed := m.Claim("k")
	if !filed {
		t.Fatal("the retry's key was evicted with the failed entry before it")
	}
	if d, err := m.Resolve(0, got); err != nil || d != retry {
		t.Fatalf("retry resolves to %+v, %v; want %+v", d, err, retry)
	}
	claimSettle(t, m, "c", Decision{ID: 4, State: Rejected, Reason: "r"}) // evicts the retry's entry
	if _, filed := m.Claim("k"); filed {
		t.Fatal("the retry's key outlived its own queue entry")
	}
}

// TestIdempotencyCycleAllocatesNothing files, settles and evicts keys at a
// retention of 3 once the free list and the queue are warm: a keyed
// decision's slot comes off the free list and goes back to it.
func TestIdempotencyCycleAllocatesNothing(t *testing.T) {
	m := New(testNet(t), policy.MinRate(), 3)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	i := 0
	cycle := func() {
		key := keys[i%len(keys)]
		i++
		sl, filed := m.Claim(key)
		if filed {
			panic("key " + key + " still filed")
		}
		m.Settle(key, sl, Decision{ID: request.ID(i), State: Rejected, Reason: "capacity saturated"}, nil)
	}
	for range 2 * len(keys) {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Claim, Settle and eviction allocate %v times per key", n)
	}
	if len(m.idem) != 3 || m.idemOrder.len() != 3 {
		t.Fatalf("cache holds %d keys in a queue of %d, want 3 and 3", len(m.idem), m.idemOrder.len())
	}
}

// TestParkedDuplicateOutlivesEviction parks a duplicate on an unsettled
// slot, then files more than the retention of newer keys (evicting the
// parked key's queue entry) before and after the owner settles. The slot
// must not be recycled while the duplicate still holds it: the duplicate
// resolves to its own key's decision, not a later key's. Run it with -race.
func TestParkedDuplicateOutlivesEviction(t *testing.T) {
	const retention = 4
	m := New(testNet(t), policy.MinRate(), retention)
	var mu sync.Mutex // the caller's lock, as the daemon's s.mu
	mu.Lock()
	owner, _ := m.Claim("k")
	mu.Unlock()

	parked := make(chan struct{})
	got := make(chan Decision, 1)
	go func() {
		mu.Lock()
		sl, filed := m.Claim("k")
		mu.Unlock()
		if !filed {
			panic("the duplicate found no slot")
		}
		close(parked)
		sl.Wait()
		mu.Lock()
		d, err := m.Resolve(0, sl)
		mu.Unlock()
		if err != nil {
			panic(err)
		}
		got <- d
	}()
	<-parked

	fill := func(from int) {
		for i := range 2 * retention {
			id := from + i
			claimSettle(t, m, fmt.Sprintf("n%d", id), Decision{ID: request.ID(id), State: Rejected, Reason: "later"})
		}
	}
	mu.Lock()
	fill(100)
	want := Decision{ID: 7, State: Rejected, Reason: "capacity saturated"}
	m.Settle("k", owner, want, nil)
	fill(200) // the duplicate cannot resolve before these are filed
	mu.Unlock()

	if d := <-got; d != want {
		t.Fatalf("parked duplicate resolved to %+v, want %+v", d, want)
	}
	if _, filed := m.Claim("k"); filed {
		t.Fatal("an evicted key is still filed")
	}
}

// TestRecordedKeysShareSettled checks that a slot filed from a record is
// settled from the start, without a channel of its own.
func TestRecordedKeysShareSettled(t *testing.T) {
	m := New(testNet(t), policy.MinRate(), 8)
	if _, err := m.Apply(trace.Event{Kind: trace.EventReject, Request: 3, Reason: "r", Key: "k"}); err != nil {
		t.Fatal(err)
	}
	sl, filed := m.Claim("k")
	if !filed || sl.done != settled {
		t.Fatalf("recorded key: filed %v, done %p, want the shared %p", filed, sl.done, settled)
	}
	sl.Wait()
	if d, err := m.Resolve(0, sl); err != nil || d.ID != 3 || d.State != Rejected {
		t.Fatalf("resolves to %+v, %v", d, err)
	}
}
