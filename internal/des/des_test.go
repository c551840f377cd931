package des

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gridbw/internal/rng"
	"gridbw/internal/units"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func(*Simulator) { order = append(order, 3) })
	s.At(1, func(*Simulator) { order = append(order, 1) })
	s.At(2, func(*Simulator) { order = append(order, 2) })
	end := s.Run()
	if end != 3 {
		t.Errorf("final clock %v, want 3", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTiesFireFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func(*Simulator) { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestRandomScheduleStillOrdered(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		s := New()
		var fired []units.Time
		n := 50 + src.Intn(100)
		for i := 0; i < n; i++ {
			at := units.Time(src.Uniform(0, 1000))
			s.At(at, func(sim *Simulator) { fired = append(fired, sim.Now()) })
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var at units.Time
	s.At(10, func(sim *Simulator) {
		sim.After(5, func(sim *Simulator) { at = sim.Now() })
	})
	s.Run()
	if at != 15 {
		t.Errorf("After fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func(sim *Simulator) {
		defer func() {
			if recover() == nil {
				t.Error("past scheduling did not panic")
			}
			sim.Stop()
		}()
		sim.At(5, func(*Simulator) {})
	})
	s.Run()
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	New().At(0, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().After(-1, func(*Simulator) {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.At(1, func(*Simulator) { fired = true })
	if !s.Cancel(h) {
		t.Error("first Cancel reported false")
	}
	if s.Cancel(h) {
		t.Error("second Cancel reported true")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New()
	var h Handle
	h = s.At(1, func(*Simulator) {})
	s.Run()
	if s.Cancel(h) {
		t.Error("Cancel after firing reported true")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(units.Time(i), func(sim *Simulator) {
			count++
			if count == 3 {
				sim.Stop()
			}
		})
	}
	end := s.Run()
	if count != 3 {
		t.Errorf("fired %d events after Stop, want 3", count)
	}
	if end != 3 {
		t.Errorf("clock %v, want 3", end)
	}
	// A fresh Run resumes the remaining events.
	s.Run()
	if count != 10 {
		t.Errorf("resume fired %d total, want 10", count)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	var fired []units.Time
	for _, at := range []units.Time{1, 5, 9, 12} {
		at := at
		s.At(at, func(*Simulator) { fired = append(fired, at) })
	}
	end := s.RunUntil(10)
	if end != 10 {
		t.Errorf("clock %v, want 10", end)
	}
	if len(fired) != 3 {
		t.Errorf("fired %v, want events <= 10 only", fired)
	}
	s.RunUntil(-1)
	if len(fired) != 4 {
		t.Errorf("resume fired %v", fired)
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	s := New()
	if end := s.RunUntil(42); end != 42 {
		t.Errorf("clock %v, want 42", end)
	}
}

func TestStep(t *testing.T) {
	s := New()
	count := 0
	s.At(1, func(*Simulator) { count++ })
	s.At(2, func(*Simulator) { count++ })
	if !s.Step() || count != 1 {
		t.Fatal("first Step failed")
	}
	if !s.Step() || count != 2 {
		t.Fatal("second Step failed")
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestFiredAndPending(t *testing.T) {
	s := New()
	s.At(1, func(*Simulator) {})
	h := s.At(2, func(*Simulator) {})
	s.Cancel(h)
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Fired() != 1 {
		t.Errorf("Fired = %d, want 1 (cancelled not counted)", s.Fired())
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var ticks []units.Time
	s.Ticker(0, 100, 450, func(sim *Simulator, tick int) bool {
		ticks = append(ticks, sim.Now())
		return true
	})
	s.Run()
	want := []units.Time{0, 100, 200, 300, 400}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopsWhenFnReturnsFalse(t *testing.T) {
	s := New()
	count := 0
	s.Ticker(0, 10, -1, func(sim *Simulator, tick int) bool {
		count++
		return count < 4
	})
	s.Run()
	if count != 4 {
		t.Errorf("ticker fired %d, want 4", count)
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	New().Ticker(0, 0, 10, func(*Simulator, int) bool { return false })
}

func TestTrace(t *testing.T) {
	s := New()
	var traced []units.Time
	s.Trace = func(at units.Time) { traced = append(traced, at) }
	s.At(1, func(*Simulator) {})
	s.At(2, func(*Simulator) {})
	s.Run()
	if len(traced) != 2 || traced[0] != 1 || traced[1] != 2 {
		t.Errorf("traced = %v", traced)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	s := New()
	s.At(1, func(sim *Simulator) {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		sim.Run()
	})
	s.Run()
}

func TestNext(t *testing.T) {
	s := New()
	if _, ok := s.Next(); ok {
		t.Error("Next on empty simulator reported an event")
	}
	h1 := s.At(3, func(*Simulator) {})
	s.At(7, func(*Simulator) {})
	if at, ok := s.Next(); !ok || at != 3 {
		t.Errorf("Next = %v, %v; want 3, true", at, ok)
	}
	// Cancelling the head makes Next skip (and drain) it.
	s.Cancel(h1)
	if at, ok := s.Next(); !ok || at != 7 {
		t.Errorf("Next after cancel = %v, %v; want 7, true", at, ok)
	}
	// Next does not fire events: the clock and queue are intact.
	if s.Now() != 0 {
		t.Errorf("Next advanced the clock to %v", s.Now())
	}
	if got := s.Run(); got != 7 {
		t.Errorf("Run ended at %v, want 7", got)
	}
	if _, ok := s.Next(); ok {
		t.Error("Next after drain reported an event")
	}
}

// refEvent is one event of refSim, the reference FuzzEventOrder holds the
// kernel to.
type refEvent struct {
	id        int
	at        units.Time
	cancelled bool
}

// refSim is the queue's contract written the slow way: the events pending
// in scheduling order, stable-sorted by instant whenever the head is asked
// for, so that ties fire in scheduling order. A cancelled event stays
// pending until it reaches the head, where the kernel drains it.
type refSim struct {
	now     units.Time
	pending []refEvent
	fired   []int
	child   []bool // by id: scheduled by a firing event
	stopped bool
	sorted  bool // pending is in firing order: nothing was scheduled since the sort
}

func (r *refSim) at(at units.Time, child bool) {
	r.pending = append(r.pending, refEvent{id: len(r.child), at: at})
	r.child = append(r.child, child)
	r.sorted = false
}

func (r *refSim) head() *refEvent {
	if !r.sorted {
		slices.SortStableFunc(r.pending, func(a, b refEvent) int { return cmp.Compare(a.at, b.at) })
		r.sorted = true
	}
	return &r.pending[0]
}

// pop removes the head and fires it unless it was cancelled, reporting
// whether it fired.
func (r *refSim) pop() bool {
	e := *r.head()
	r.pending = r.pending[1:]
	if e.cancelled {
		return false
	}
	r.now = e.at
	r.fired = append(r.fired, e.id)
	if spawns(e.id, r.child[e.id]) {
		r.at(r.now+1, true)
	}
	if stops(e.id) {
		r.stopped = true
	}
	return true
}

func (r *refSim) cancel(id int) bool {
	for i := range r.pending {
		if e := &r.pending[i]; e.id == id {
			ok := !e.cancelled
			e.cancelled = true
			return ok
		}
	}
	return false // fired or drained
}

func (r *refSim) runUntil(horizon units.Time) units.Time {
	r.stopped = false
	for len(r.pending) > 0 && !r.stopped {
		if horizon >= 0 && r.head().at > horizon {
			r.now = horizon
			return r.now
		}
		r.pop()
	}
	if horizon >= 0 && r.now < horizon && !r.stopped {
		r.now = horizon
	}
	return r.now
}

func (r *refSim) step() bool {
	for len(r.pending) > 0 {
		if r.pop() {
			return true
		}
	}
	return false
}

func (r *refSim) next() (units.Time, bool) {
	for len(r.pending) > 0 {
		if e := r.head(); !e.cancelled {
			return e.at, true
		}
		r.pending = r.pending[1:]
	}
	return 0, false
}

// spawns reports whether event id schedules a child one instant on when it
// fires: every third event the driver scheduled does, no child does.
func spawns(id int, child bool) bool { return !child && id%3 == 0 }

// stops reports whether event id stops the run when it fires.
func stops(id int) bool { return id%11 == 10 }

// FuzzEventOrder drives the kernel and refSim through one sequence of At,
// Cancel, RunUntil, Step and Next, with instants on a grid of eight so that
// many events tie, and with events that schedule children or stop the run
// as they fire. The firing order, Now, Pending and every answer must match
// after each operation.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 0, 4, 2, 1, 0, 3, 5})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 1, 4, 0, 0, 2, 2, 2, 3, 0})
	f.Add([]byte{0, 7, 0, 0, 0, 9, 1, 2, 0, 2, 3, 1, 4, 2, 0, 4, 2, 15, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New()
		ref := &refSim{}
		var handles []Handle // by id
		var child []bool     // by id
		var fired []int
		var event func(id int) Event
		at := func(sim *Simulator, at units.Time, isChild bool) {
			id := len(handles)
			child = append(child, isChild)
			handles = append(handles, sim.At(at, event(id)))
		}
		event = func(id int) Event {
			return func(sim *Simulator) {
				fired = append(fired, id)
				if spawns(id, child[id]) {
					at(sim, sim.Now()+1, true)
				}
				if stops(id) {
					sim.Stop()
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, int(ops[i+1])
			switch op {
			case 0: // At, on the grid from now
				when := s.Now() + units.Time(arg%8)
				at(s, when, false)
				ref.at(when, false)
			case 1: // Cancel, of any handle ever returned: a stale one too
				if len(handles) == 0 {
					continue
				}
				id := arg % len(handles)
				if g, w := s.Cancel(handles[id]), ref.cancel(id); g != w {
					t.Fatalf("op %d: Cancel(%d) = %v, want %v", i, id, g, w)
				}
			case 2: // RunUntil a horizon on the grid, or with none
				horizon := s.Now() + units.Time(arg%8)
				if arg%16 == 15 {
					horizon = -1
				}
				if g, w := s.RunUntil(horizon), ref.runUntil(horizon); g != w {
					t.Fatalf("op %d: RunUntil(%v) = %v, want %v", i, horizon, g, w)
				}
			case 3:
				if g, w := s.Step(), ref.step(); g != w {
					t.Fatalf("op %d: Step = %v, want %v", i, g, w)
				}
			case 4:
				g, gok := s.Next()
				if w, wok := ref.next(); g != w || gok != wok {
					t.Fatalf("op %d: Next = %v, %v; want %v, %v", i, g, gok, w, wok)
				}
			}
			if !slices.Equal(fired, ref.fired) {
				t.Fatalf("op %d: fired %v, want %v", i, fired, ref.fired)
			}
			if s.Now() != ref.now || s.Pending() != len(ref.pending) {
				t.Fatalf("op %d: Now %v, Pending %d; want %v, %d", i, s.Now(), s.Pending(), ref.now, len(ref.pending))
			}
		}
	})
}

// TestArmAndFireAllocateNothing: with 20k events pending, arming one event
// and firing one allocates nothing — the queue's array has its room and the
// fired item is recycled for the next arm.
func TestArmAndFireAllocateNothing(t *testing.T) {
	s := New()
	src := rand.New(rand.NewSource(1))
	fn := func(*Simulator) {}
	for range 20000 {
		s.At(units.Time(src.Float64()*1000), fn)
	}
	n := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+units.Time(src.Float64()*1000), fn)
		if !s.Step() {
			panic("nothing fired")
		}
	})
	if n != 0 {
		t.Fatalf("arming and firing one event allocates %.1f objects, want 0", n)
	}
	if s.Pending() != 20000 {
		t.Fatalf("Pending = %d, want 20000", s.Pending())
	}
}
