package alloc

import (
	"slices"
	"testing"
	"testing/quick"

	"gridbw/internal/rng"
	"gridbw/internal/units"
)

func TestProfileReserveAndQuery(t *testing.T) {
	p := NewProfile(10)
	if err := p.Reserve(0, 10, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(5, 15, 3); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   units.Time
		want units.Bandwidth
	}{
		{-1, 0}, {0, 4}, {4.9, 4}, {5, 7}, {9.9, 7}, {10, 3}, {14.9, 3}, {15, 0}, {100, 0},
	}
	for _, c := range cases {
		if got := p.UsedAt(c.at); got != c.want {
			t.Errorf("UsedAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := p.MaxUsedIn(0, 15); got != 7 {
		t.Errorf("MaxUsedIn = %v, want 7", got)
	}
	if got := p.MaxUsedIn(10, 20); got != 3 {
		t.Errorf("MaxUsedIn tail = %v, want 3", got)
	}
	if got := p.FreeIn(0, 15); got != 3 {
		t.Errorf("FreeIn = %v, want 3", got)
	}
}

func TestProfileRejectsOverCapacity(t *testing.T) {
	p := NewProfile(10)
	if err := p.Reserve(0, 10, 8); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(5, 6, 3); err == nil {
		t.Fatal("over-capacity reservation accepted")
	}
	// Failed reservation must not change state.
	if got := p.UsedAt(5.5); got != 8 {
		t.Errorf("state changed after rejected reservation: %v", got)
	}
	// Non-overlapping is fine.
	if err := p.Reserve(10, 20, 10); err != nil {
		t.Fatal(err)
	}
}

func TestProfileExactFit(t *testing.T) {
	p := NewProfile(1 * units.GBps)
	for i := 0; i < 10; i++ {
		if err := p.Reserve(0, 100, 100*units.MBps); err != nil {
			t.Fatalf("reservation %d: %v", i, err)
		}
	}
	// Capacity is now exactly full; anything more fails.
	if p.Fits(50, 60, 1*units.MBps) {
		t.Error("fit reported above full capacity")
	}
}

func TestProfileRelease(t *testing.T) {
	p := NewProfile(10)
	if err := p.Reserve(0, 10, 6); err != nil {
		t.Fatal(err)
	}
	p.Release(0, 10, 6)
	if got := p.UsedAt(5); got != 0 {
		t.Errorf("UsedAt after release = %v", got)
	}
	if err := p.Reserve(0, 10, 10); err != nil {
		t.Errorf("full reservation after release rejected: %v", err)
	}
}

func TestProfilePartialRelease(t *testing.T) {
	p := NewProfile(10)
	if err := p.Reserve(0, 20, 6); err != nil {
		t.Fatal(err)
	}
	p.Release(5, 10, 6)
	if got := p.UsedAt(7); got != 0 {
		t.Errorf("released middle = %v", got)
	}
	if got := p.UsedAt(3); got != 6 {
		t.Errorf("head = %v", got)
	}
	if got := p.UsedAt(15); got != 6 {
		t.Errorf("tail = %v", got)
	}
}

func TestProfileOverReleasePanics(t *testing.T) {
	p := NewProfile(10)
	if err := p.Reserve(0, 10, 2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	p.Release(0, 10, 5)
}

func TestProfileEmptySpanPanics(t *testing.T) {
	p := NewProfile(10)
	for _, f := range []func(){
		func() { _ = p.Reserve(5, 5, 1) },
		func() { p.Release(6, 5, 1) },
		func() { p.MaxUsedIn(1, 1) },
		func() { p.Integral(2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty span did not panic")
				}
			}()
			f()
		}()
	}
}

func TestProfileNegativeArgsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewProfile(-1) },
		func() { NewProfile(1).Fits(0, 1, -1) },
		func() { NewProfile(1).Release(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative arg did not panic")
				}
			}()
			f()
		}()
	}
}

func TestProfileIntegral(t *testing.T) {
	p := NewProfile(10)
	if err := p.Reserve(0, 10, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(5, 15, 2); err != nil {
		t.Fatal(err)
	}
	// [0,5): 4 -> 20; [5,10): 6 -> 30; [10,15): 2 -> 10. Total 60.
	if got := p.Integral(0, 15); got != 60 {
		t.Errorf("Integral = %v, want 60", got)
	}
	// Sub-range clipping: [3, 7) = 4*2 + 6*2 = 20.
	if got := p.Integral(3, 7); got != 20 {
		t.Errorf("clipped Integral = %v, want 20", got)
	}
	// Range beyond all breakpoints: usage 0.
	if got := p.Integral(20, 30); got != 0 {
		t.Errorf("tail Integral = %v, want 0", got)
	}
	// Range before all activity.
	if got := p.Integral(-10, -5); got != 0 {
		t.Errorf("head Integral = %v, want 0", got)
	}
}

func TestProfileCoalesce(t *testing.T) {
	p := NewProfile(100)
	for i := 0; i < 50; i++ {
		t0 := units.Time(i * 10)
		if err := p.Reserve(t0, t0+10, 5); err != nil {
			t.Fatal(err)
		}
	}
	// All 50 adjacent equal segments should have merged into few.
	if p.Breakpoints() > 4 {
		t.Errorf("profile not coalesced: %d breakpoints", p.Breakpoints())
	}
	for i := 0; i < 50; i++ {
		t0 := units.Time(i * 10)
		p.Release(t0, t0+10, 5)
	}
	if p.Breakpoints() > 2 {
		t.Errorf("profile not coalesced after release: %d breakpoints", p.Breakpoints())
	}
}

// TestProfileNeverOverCommits is the central property: a random sequence of
// accepted reservations and releases never drives any instant above
// capacity, and the profile matches a brute-force reference.
func TestProfileNeverOverCommits(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		const capacity = 100
		p := NewProfile(capacity)
		type res struct {
			t0, t1 units.Time
			bw     units.Bandwidth
		}
		var live []res
		// Brute-force reference: usage sampled on integer grid.
		ref := make([]float64, 200)
		for step := 0; step < 300; step++ {
			if len(live) > 0 && src.Bool(0.3) {
				k := src.Intn(len(live))
				r := live[k]
				p.Release(r.t0, r.t1, r.bw)
				for i := int(r.t0); i < int(r.t1); i++ {
					ref[i] -= float64(r.bw)
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			t0 := units.Time(src.Intn(180))
			t1 := t0 + units.Time(src.Intn(19)+1)
			bw := units.Bandwidth(src.Intn(40) + 1)
			err := p.Reserve(t0, t1, bw)
			fits := true
			for i := int(t0); i < int(t1); i++ {
				if ref[i]+float64(bw) > capacity+1e-6 {
					fits = false
					break
				}
			}
			if fits != (err == nil) {
				return false
			}
			if err == nil {
				for i := int(t0); i < int(t1); i++ {
					ref[i] += float64(bw)
				}
				live = append(live, res{t0, t1, bw})
			}
			if p.CheckInvariant() != nil {
				return false
			}
		}
		// Final cross-check against reference on the grid.
		for i := 0; i < 200; i++ {
			if !units.ApproxEq(float64(p.UsedAt(units.Time(i))), ref[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestProfileSpanBeforeFirstBreakpoint(t *testing.T) {
	p := NewProfile(10)
	if err := p.Reserve(100, 110, 5); err != nil {
		t.Fatal(err)
	}
	// Reserve earlier than any existing breakpoint (prepend path).
	if err := p.Reserve(-50, -40, 7); err != nil {
		t.Fatal(err)
	}
	if got := p.UsedAt(-45); got != 7 {
		t.Errorf("UsedAt(-45) = %v", got)
	}
	if got := p.UsedAt(0); got != 0 {
		t.Errorf("UsedAt(0) = %v", got)
	}
	if got := p.UsedAt(105); got != 5 {
		t.Errorf("UsedAt(105) = %v", got)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestEarliestFit(t *testing.T) {
	p := NewProfile(10)
	if err := p.Reserve(10, 30, 8); err != nil {
		t.Fatal(err)
	}
	// bw=5 doesn't fit during [10,30); earliest start for a 5-long slot is
	// right at the release breakpoint t=30.
	got, ok := p.EarliestFit(0, 100, 5, 5)
	if !ok || got != 0 {
		// Wait: at t=0, [0,5) is free (reservation starts at 10): fits.
		t.Errorf("EarliestFit(0..) = %v, %v; want 0, true", got, ok)
	}
	// From t=8 a 5-long slot overlaps the busy region; next candidate is 30.
	got, ok = p.EarliestFit(8, 100, 5, 5)
	if !ok || got != 30 {
		t.Errorf("EarliestFit(8..) = %v, %v; want 30, true", got, ok)
	}
	// A thin request fits immediately even during the busy region.
	got, ok = p.EarliestFit(8, 100, 5, 2)
	if !ok || got != 8 {
		t.Errorf("thin EarliestFit = %v, %v; want 8, true", got, ok)
	}
	// No feasible start inside a short horizon.
	if _, ok := p.EarliestFit(12, 20, 5, 5); ok {
		t.Error("found fit inside saturated region")
	}
	// Inverted range.
	if _, ok := p.EarliestFit(50, 40, 1, 1); ok {
		t.Error("inverted range found fit")
	}
}

func TestEarliestFitPanicsOnBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero duration did not panic")
		}
	}()
	NewProfile(1).EarliestFit(0, 10, 0, 1)
}

func TestBreakpointTimes(t *testing.T) {
	p := NewProfile(10)
	if err := p.Reserve(5, 15, 3); err != nil {
		t.Fatal(err)
	}
	bps := p.BreakpointTimes(0, 100)
	// Expect breakpoints at 5 and 15 (0 excluded: not > from).
	if len(bps) != 2 || bps[0] != 5 || bps[1] != 15 {
		t.Errorf("BreakpointTimes = %v", bps)
	}
	if got := p.BreakpointTimes(5, 10); len(got) != 0 {
		t.Errorf("clipped BreakpointTimes = %v", got)
	}
}

func TestZeroCapacityProfile(t *testing.T) {
	p := NewProfile(0)
	if err := p.Reserve(0, 1, 1); err == nil {
		t.Error("reservation on zero-capacity point accepted")
	}
	if !p.Fits(0, 1, 0) {
		t.Error("zero reservation on zero-capacity point rejected")
	}
}

// staircase books n one-second steps of alternating height, so no two
// neighbours merge and the profile fills whole blocks.
func staircase(t *testing.T, n int) *Profile {
	t.Helper()
	p := NewProfile(100)
	for i := 0; i < n; i++ {
		if err := p.Reserve(units.Time(i), units.Time(i+1), units.Bandwidth(1+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestTrimBeforeForgetsWholeBlocks: a trim splices the blocks wholly behind
// the floor out of the directory and onto the spare list; a read before the
// floor answers as at the floor, a booking wholly before it books nothing,
// and a lower trim changes nothing.
func TestTrimBeforeForgetsWholeBlocks(t *testing.T) {
	p := staircase(t, 1000)
	blocks, bps := len(p.blocks), p.Breakpoints()
	p.TrimBefore(500.5)
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if len(p.blocks) > blocks/2+1 || p.Breakpoints() > bps/2+blockCap || len(p.spare) != blocks-len(p.blocks) {
		t.Fatalf("after the trim: %d of %d blocks, %d of %d breakpoints, %d spare", len(p.blocks), blocks, p.Breakpoints(), bps, len(p.spare))
	}
	if p.first[0] > 500.5 || (len(p.first) > 1 && p.first[1] <= 500.5) {
		t.Fatalf("the first block starts at %v, the second at %v: the block covering the floor must be the first", p.first[0], p.first[1])
	}
	atFloor := p.UsedAt(500.5)
	if atFloor != 1 {
		t.Fatalf("UsedAt(floor) = %v, want 1", atFloor)
	}
	if got := p.UsedAt(17); got != atFloor {
		t.Errorf("UsedAt(17) = %v, want the floor's %v", got, atFloor)
	}
	if got := p.MaxUsedIn(10, 20); got != atFloor {
		t.Errorf("MaxUsedIn(10, 20) = %v, want the floor's %v", got, atFloor)
	}
	if got, want := p.MaxUsedIn(10, 502), units.Bandwidth(2); got != want {
		t.Errorf("MaxUsedIn(10, 502) = %v, want %v", got, want)
	}
	if got, want := p.Integral(0, 510), p.Integral(500.5, 510); got != want {
		t.Errorf("Integral(0, 510) = %v, want what lies after the floor, %v", got, want)
	}
	if got := p.BreakpointTimes(0, 503); !slices.Equal(got, []units.Time{501, 502, 503}) {
		t.Errorf("BreakpointTimes(0, 503) = %v", got)
	}
	n := p.Breakpoints()
	if err := p.Reserve(10, 20, 100); err != nil {
		t.Errorf("a booking wholly behind the floor is refused: %v", err)
	}
	if err := p.Reserve(10, 501, 100); err == nil {
		t.Error("a booking over the floor's usage fits")
	}
	// What lies behind the floor is forgotten, not released: the floor gets
	// a breakpoint of its own, and the stale segment before it keeps 1.
	p.Release(400, 501, 1)
	if p.Breakpoints() != n+1 || p.UsedAt(500.7) != 0 || p.UsedAt(501) != 2 {
		t.Errorf("after a release across the floor: %d breakpoints (was %d), usage %v at the floor, %v at 501",
			p.Breakpoints(), n, p.UsedAt(500.7), p.UsedAt(501))
	}
	p.TrimBefore(300)
	if p.floor != 500.5 {
		t.Errorf("a lower trim moved the floor to %v", p.floor)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestTrimBeforeAllocatesNothing: a window sliding forward, each step booking
// ahead and trimming behind, reuses the blocks the trims spliced out.
func TestTrimBeforeAllocatesNothing(t *testing.T) {
	p := NewProfile(1000)
	now := units.Time(0)
	step := func() {
		if err := p.Reserve(now+50, now+150, units.Bandwidth(1+int(now)%7)); err != nil {
			t.Fatal(err)
		}
		p.TrimBefore(now)
		now++
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Errorf("%v allocations per step, want 0", allocs)
	}
	if bps := p.Breakpoints(); bps > 2*150+blockCap {
		t.Errorf("%d breakpoints: the profile keeps more than its window and one block", bps)
	}
}
