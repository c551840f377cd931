package hold

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

// msg is one protocol message or timer, as both users of the table deliver
// it: the daemon (server/holds.go, its replay and its timers) and the §7
// simulator (internal/distributed).
type msg int

const (
	reserveFits    msg = iota // RESERVE whose one-sided check books
	reserveRefused            // RESERVE whose one-sided check refuses
	confirm
	abort
	ttl     // the TTL of an unconfirmed hold lapses
	release // τ of a confirmed hold arrives
	numMsgs
)

func (m msg) String() string {
	return [...]string{"RESERVE(fits)", "RESERVE(refused)", "CONFIRM", "ABORT", "TTL", "release at τ"}[m]
}

// counter is a Releaser that counts bookings and releases per key (the
// point index is the key's index) and fails the test on a release of
// nothing.
type counter struct {
	t                *testing.T
	booked, released map[topology.PointID]int
}

func newCounter(t *testing.T) *counter {
	return &counter{t: t, booked: map[topology.PointID]int{}, released: map[topology.PointID]int{}}
}

func (c *counter) HoldRelease(dir topology.Direction, p topology.PointID, sigma, tau units.Time, bw units.Bandwidth, at units.Time) {
	c.released[p]++
	if c.released[p] > c.booked[p] {
		c.t.Fatalf("key %d released %d times, booked %d", p, c.released[p], c.booked[p])
	}
	if dir != topology.Ingress || sigma != 1 || tau != 2 || bw != 10 {
		c.t.Fatalf("key %d released as (%v, %v, %v, %v), not what it booked", p, dir, sigma, tau, bw)
	}
	if at != tau && !math.IsInf(float64(at), -1) {
		c.t.Fatalf("key %d released at %v: neither τ nor a rollback's −∞", p, at)
	}
}

// trims records the instant each release names, in seconds.
type trims []float64

func (ts *trims) HoldRelease(_ topology.Direction, _ topology.PointID, _, _ units.Time, _ units.Bandwidth, at units.Time) {
	*ts = append(*ts, float64(at))
}

// TestRollbackNeverTrimsAheadOfTheClock: the table has no clock, so only the
// release at τ, which its timer delivers once the clock reached τ, may let
// the store forget the past. An ABORT or a TTL lapse of a booked-ahead hold
// comes before its σ and must name no instant at all.
func TestRollbackNeverTrimsAheadOfTheClock(t *testing.T) {
	var got trims
	tb := NewTable(&got, 8)
	ahead := func(key string) {
		if _, err := tb.Step(Msg{Kind: Reserve, Key: key, Decide: func() (Entry, error) {
			return Entry{Side: trace.HoldSideIngress, ID: -1, BW: 10, Sigma: 100, Tau: 200, ExpireAt: 5}, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	ahead("abort")
	ahead("lapse")
	ahead("release")
	for _, m := range []Msg{{Kind: Abort, Key: "abort"}, {Kind: Lapse, Key: "lapse"}, {Kind: Confirm, Key: "release"}, {Kind: Release, Key: "release"}} {
		if _, err := tb.Step(m); err != nil {
			t.Fatal(err)
		}
	}
	if want := (trims{math.Inf(-1), math.Inf(-1), 200}); !slices.Equal(got, want) {
		t.Errorf("releases named %v, want %v (abort, lapse, release at τ)", got, want)
	}
}

// message is the Msg a caller sends for m to key k: a RESERVE carries the
// one-sided check, which books (and counts the booking) or refuses; an
// ABORT carries the reason the daemon files for an unknown key.
func message(c *counter, k int, m msg) Msg {
	out := Msg{Kind: [numMsgs]Kind{Reserve, Reserve, Confirm, Abort, Lapse, Release}[m], Key: fmt.Sprintf("k%d", k)}
	switch m {
	case reserveFits, reserveRefused:
		out.Decide = func() (Entry, error) {
			h := Entry{Side: trace.HoldSideIngress, Point: topology.PointID(k), ID: -1, BW: 10, Sigma: 1, Tau: 2}
			if m == reserveRefused {
				h.Reason = "saturated"
			} else {
				c.booked[h.Point]++
			}
			return h, nil
		}
	case abort:
		out.Reason = "aborted before reserve"
	}
	return out
}

// answer words a result as the daemon answers it: what a RESERVE or CONFIRM
// answers, "aborted" for an ABORT, "-" for a timer.
func answer(r Result) string {
	switch r.Answer {
	case Granted:
		return "held"
	case Refused:
		if r.Entry.Reason == "" {
			return "refused: hold aborted"
		}
		return "refused: " + r.Entry.Reason
	case Committed:
		return "confirmed"
	case RolledBack:
		return "aborted"
	case NotFound:
		return "404"
	case Conflict:
		return "409"
	}
	return "-"
}

// step sends m to key k through Step and returns the answer and whether
// capacity came back. A timer it names must be the one the new state waits
// on.
func step(tb *Table, c *counter, k int, m msg) (string, bool) {
	res, err := tb.Step(message(c, k, m))
	if err != nil {
		c.t.Fatal(err)
	}
	if res.Arm != 0 && res.Arm != res.Entry.Waits() {
		c.t.Fatalf("%v armed timer %d, but the state waits on %d", m, res.Arm, res.Entry.Waits())
	}
	return answer(res), res.Released
}

// describe is where key k stands: its state and whether it books.
func describe(tb *Table, k int) string {
	e, ok := tb.Get(fmt.Sprintf("k%d", k))
	switch {
	case !ok:
		return "none"
	case e.Booked:
		return e.State.String() + "+booked"
	}
	return e.State.String()
}

// TestTruthTable drives every (state, message) pair through Step and then
// the same message again: each row gives the next state, whether capacity
// came back and the answer, and the second copy must change nothing and
// release nothing. The starting states are reached by message sequences, so
// the rows also cover every message out of order: a CONFIRM or ABORT before
// its RESERVE, a RESERVE after an ABORT, a release before a CONFIRM, a TTL
// after one.
func TestTruthTable(t *testing.T) {
	starts := []struct {
		name string
		path []msg
		is   string
	}{
		{"unknown", nil, "none"},
		{"held", []msg{reserveFits}, "held+booked"},
		{"refused", []msg{reserveRefused}, "aborted"},
		{"confirmed", []msg{reserveFits, confirm}, "confirmed+booked"},
		{"released", []msg{reserveFits, confirm, release}, "confirmed"},
		{"rolled back", []msg{reserveFits, abort}, "aborted"},
		{"expired", []msg{reserveFits, ttl}, "aborted"},
		{"tombstone", []msg{abort}, "aborted"},
	}
	type row struct {
		next     string
		released bool
		answer   string
	}
	// want[start][message], messages in msg order.
	want := map[string][numMsgs]row{
		"unknown": {
			{"held+booked", false, "held"}, {"aborted", false, "refused: saturated"}, {"none", false, "404"},
			{"aborted", false, "aborted"}, {"none", false, "-"}, {"none", false, "-"}},
		"held": {
			{"held+booked", false, "held"}, {"held+booked", false, "held"}, {"confirmed+booked", false, "confirmed"},
			{"aborted", true, "aborted"}, {"aborted", true, "-"}, {"held+booked", false, "-"}},
		"refused": {
			{"aborted", false, "refused: saturated"}, {"aborted", false, "refused: saturated"}, {"aborted", false, "409"},
			{"aborted", false, "aborted"}, {"aborted", false, "-"}, {"aborted", false, "-"}},
		"confirmed": {
			{"confirmed+booked", false, "held"}, {"confirmed+booked", false, "held"}, {"confirmed+booked", false, "confirmed"},
			{"aborted", true, "aborted"}, {"confirmed+booked", false, "-"}, {"confirmed", true, "-"}},
		"released": {
			{"confirmed", false, "held"}, {"confirmed", false, "held"}, {"confirmed", false, "confirmed"},
			{"aborted", false, "aborted"}, {"confirmed", false, "-"}, {"confirmed", false, "-"}},
		"rolled back": {
			{"aborted", false, "refused: hold aborted"}, {"aborted", false, "refused: hold aborted"}, {"aborted", false, "409"},
			{"aborted", false, "aborted"}, {"aborted", false, "-"}, {"aborted", false, "-"}},
		"expired": {
			{"aborted", false, "refused: hold aborted"}, {"aborted", false, "refused: hold aborted"}, {"aborted", false, "409"},
			{"aborted", false, "aborted"}, {"aborted", false, "-"}, {"aborted", false, "-"}},
		"tombstone": {
			{"aborted", false, "refused: aborted before reserve"}, {"aborted", false, "refused: aborted before reserve"},
			{"aborted", false, "409"}, {"aborted", false, "aborted"}, {"aborted", false, "-"}, {"aborted", false, "-"}},
	}
	for _, st := range starts {
		for m := msg(0); m < numMsgs; m++ {
			t.Run(st.name+"/"+m.String(), func(t *testing.T) {
				c := newCounter(t)
				tb := NewTable(c, 100)
				for _, p := range st.path {
					step(tb, c, 0, p)
				}
				if got := describe(tb, 0); got != st.is {
					t.Fatalf("start state %s, want %s", got, st.is)
				}
				w := want[st.name][m]
				answer, released := step(tb, c, 0, m)
				if got := (row{describe(tb, 0), released, answer}); got != w {
					t.Fatalf("got %+v, want %+v", got, w)
				}
				again, releasedAgain := step(tb, c, 0, m)
				if got := describe(tb, 0); got != w.next || releasedAgain || again != answer {
					t.Fatalf("second copy: %s, released %v, answer %q; want %s, false, %q", got, releasedAgain, again, w.next, answer)
				}
				outstanding := c.booked[0] - c.released[0]
				if (outstanding == 1) != strings.HasSuffix(w.next, "+booked") || outstanding < 0 {
					t.Fatalf("%d bookings outstanding in state %s", outstanding, w.next)
				}
			})
		}
	}
}

// TestStepOnAKnownKeyAllocatesNothing: a message for a hold the table
// already has costs no allocation, whatever its state. AllocsPerRun's
// warm-up delivers the first copy, which may take a transition; the copies
// it counts are the duplicates every message must tolerate.
func TestStepOnAKnownKeyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, path := range [][]msg{{reserveFits}, {reserveFits, confirm}, {abort}} {
		for m := msg(0); m < numMsgs; m++ {
			c := newCounter(t)
			tb := NewTable(c, 100)
			for _, p := range path {
				step(tb, c, 0, p)
			}
			next := message(c, 0, m)
			if n := testing.AllocsPerRun(100, func() { tb.Step(next) }); n != 0 {
				t.Errorf("%v after %v: %v allocs, want 0", m, path, n)
			}
		}
	}
}

// TestKeyResolvesBytesToTheFiledString: a key read off a frame as bytes
// resolves to the string the table filed, without a copy; an unknown one
// does not resolve.
func TestKeyResolvesBytesToTheFiledString(t *testing.T) {
	c := newCounter(t)
	tb := NewTable(c, 100)
	step(tb, c, 0, reserveFits)
	e, _ := tb.Get(message(c, 0, reserveFits).Key)
	frame := []byte("head:" + e.Key)
	key, ok := tb.Key(frame[len("head:"):])
	if !ok || key != e.Key || unsafe.StringData(key) != unsafe.StringData(e.Key) {
		t.Fatalf("Key resolved %q, %v; want the filed string %q", key, ok, e.Key)
	}
	if _, ok := tb.Key([]byte("unknown")); ok {
		t.Fatal("an unknown key resolved")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { tb.Key(frame[len("head:"):]) }); n != 0 {
			t.Fatalf("resolving a known key allocates %v times", n)
		}
	}
}

// TestRetentionEvictsResolvedHolds: the FIFO keeps the last retention
// resolved holds and forgets older ones, by key and by ID; a booked hold is
// never evicted.
func TestRetentionEvictsResolvedHolds(t *testing.T) {
	do := func(tb *Table, kind Kind, key string) {
		t.Helper()
		if _, err := tb.Step(Msg{Kind: kind, Key: key}); err != nil {
			t.Fatal(err)
		}
	}
	// file reserves h.Key with h as its side's decision.
	file := func(tb *Table, h Entry) {
		t.Helper()
		if _, err := tb.Step(Msg{Kind: Reserve, Key: h.Key, Decide: func() (Entry, error) { return h, nil }}); err != nil {
			t.Fatal(err)
		}
	}
	c := newCounter(t)
	tb := NewTable(c, 1)
	c.booked[0]++
	file(tb, Entry{Key: "live", Side: trace.HoldSideIngress, ID: 7, BW: 10, Sigma: 1, Tau: 2})
	do(tb, Abort, "a")
	do(tb, Confirm, "live")
	file(tb, Entry{Key: "b", ID: 8, Reason: "saturated"})
	if got := tb.Retired(); len(got) != 1 || got[0].Key != "b" {
		t.Fatalf("retired after eviction = %v, want [b]", got)
	}
	if _, ok := tb.Get("a"); ok {
		t.Fatal("tombstone a outlived a retention of 1")
	}
	if _, ok := tb.KeyOf(8); !ok {
		t.Fatal("the newest tombstone was evicted")
	}
	if e, ok := tb.Get("live"); !ok || !e.Booked {
		t.Fatal("a booked hold was evicted")
	}
	do(tb, Release, "live")
	do(tb, Abort, "c")
	if _, ok := tb.KeyOf(7); ok {
		t.Fatal("a released hold outlived the retention")
	}
	if held, confirmed := tb.Booked(); held+confirmed != 0 {
		t.Fatalf("%d held, %d confirmed after release", held, confirmed)
	}
	if got := fmt.Sprint(Held, Confirmed, Aborted, State(9)); got != "held confirmed aborted holdState(9)" {
		t.Fatalf("state names %q", got)
	}

	// Retired keeps resolution order, not key order, and lists a hold
	// resolved twice (released, then aborted) once, where it first resolved.
	// A recorded refusal is filed refused, reason and all.
	tb = NewTable(c, 8)
	c.booked[0]++
	file(tb, Entry{Key: "a", Side: trace.HoldSideIngress, ID: 1, BW: 10, Sigma: 1, Tau: 2})
	do(tb, Confirm, "a")
	do(tb, Abort, "z")
	do(tb, Release, "a")
	file(tb, Entry{Key: "m", ID: -1, Reason: "capacity saturated"})
	do(tb, Abort, "a")
	var keys []string
	for _, e := range tb.Retired() {
		keys = append(keys, e.Key)
	}
	if got := fmt.Sprint(keys); got != "[z a m]" {
		t.Fatalf("retired order %s, want [z a m]", got)
	}
	if e, _ := tb.Get("m"); e.State != Aborted || e.Booked || e.Reason != "capacity saturated" {
		t.Fatalf("recorded tombstone filed as %+v", e)
	}
}

// FuzzHoldMessages delivers random message streams over a few keys through
// Step and checks the machine's contract against a counting releaser: a key
// is booked at most once, no release returns what was never booked or was
// already returned (the counter fails the test on the spot), a tombstone
// answers a late RESERVE without booking, and once every held hold's TTL
// and every confirmed hold's τ has fired, every booking came back exactly
// once.
func FuzzHoldMessages(f *testing.F) {
	f.Add([]byte{0, 2, 5, 3})
	f.Add([]byte{3, 0, 2, 1, 4, 0x10, 0x12, 0x13, 0x15})
	f.Add([]byte{1, 0, 0x20, 0x22, 0x24, 0x25, 0x23, 0x30, 0x33, 0x32})
	const keys = 4
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := newCounter(t)
		tb := NewTable(c, 1<<20)
		for _, b := range stream {
			k, m := int(b>>4)%keys, msg(b&0xf)%numMsgs
			before := describe(tb, k)
			answer, _ := step(tb, c, k, m)
			if n := c.booked[topology.PointID(k)]; n > 1 {
				t.Fatalf("key %d booked %d times", k, n)
			}
			if m == reserveFits && before == "aborted" && (!strings.HasPrefix(answer, "refused") || describe(tb, k) != "aborted") {
				t.Fatalf("late RESERVE of aborted key %d answered %q, left %s", k, answer, describe(tb, k))
			}
			if m == reserveFits && before == "none" && answer != "held" {
				t.Fatalf("first RESERVE of key %d answered %q", k, answer)
			}
		}
		for k := 0; k < keys; k++ {
			step(tb, c, k, ttl)
			step(tb, c, k, release)
			if p := topology.PointID(k); c.booked[p] != c.released[p] {
				t.Fatalf("key %d booked %d times, released %d", k, c.booked[p], c.released[p])
			}
		}
		if held, confirmed := tb.Booked(); held+confirmed != 0 {
			t.Fatalf("%d held, %d confirmed still book after every timer fired", held, confirmed)
		}
	})
}
