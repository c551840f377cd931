package alloc

import (
	"testing"

	"gridbw/internal/units"
)

// buildBusyProfile reserves many short non-overlapping rectangles so the
// profile accumulates a long breakpoint list.
func buildBusyProfile(tb testing.TB, n int) *Profile {
	tb.Helper()
	p := NewProfile(1 * units.GBps)
	for i := 0; i < n; i++ {
		t0 := units.Time(2 * i)
		if err := p.Reserve(t0, t0+1, 100*units.MBps); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// naiveBreakpointTimes is the pre-optimization linear scan, kept as the
// reference the binary-searched implementation must match.
func naiveBreakpointTimes(p *Profile, from, to units.Time) []units.Time {
	var out []units.Time
	for _, b := range p.blocks {
		for _, t := range b.times[:b.n] {
			if t > from && t <= to {
				out = append(out, t)
			}
		}
	}
	return out
}

func TestBreakpointTimesMatchesNaiveScan(t *testing.T) {
	p := buildBusyProfile(t, 200)
	spans := []struct{ from, to units.Time }{
		{-10, -5}, {-10, 3}, {0, 0}, {0, 399}, {1, 1}, {1, 2},
		{17, 94}, {100, 100}, {398, 401}, {399, 1000}, {500, 600},
		{94, 17}, // inverted: must be empty, not a panic
	}
	for _, sp := range spans {
		got := p.BreakpointTimes(sp.from, sp.to)
		want := naiveBreakpointTimes(p, sp.from, sp.to)
		if len(got) != len(want) {
			t.Fatalf("BreakpointTimes(%v, %v) = %v, want %v", sp.from, sp.to, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("BreakpointTimes(%v, %v) = %v, want %v", sp.from, sp.to, got, want)
			}
		}
	}
}

func TestIntegralMatchesNaiveSpans(t *testing.T) {
	p := buildBusyProfile(t, 100)
	// Each rectangle holds 100 MB/s for 1 s: 100 MB per busy slot.
	if got, want := p.Integral(0, 200), units.Volume(100)*100*units.MB; !units.ApproxEq(float64(got), float64(want)) {
		t.Errorf("Integral(0,200) = %v, want %v", got, want)
	}
	// A late window must only see its own slots, wherever the scan starts.
	if got, want := p.Integral(190, 200), units.Volume(5)*100*units.MB; !units.ApproxEq(float64(got), float64(want)) {
		t.Errorf("Integral(190,200) = %v, want %v", got, want)
	}
	// A window straddling a slot boundary takes the partial rectangle.
	if got, want := p.Integral(100.5, 101), units.Volume(0.5*100e6); !units.ApproxEq(float64(got), float64(want)) {
		t.Errorf("Integral(100.5,101) = %v, want %v", got, want)
	}
	if got := p.Integral(500, 600); got != 0 {
		t.Errorf("Integral past all breakpoints = %v, want 0", got)
	}
}

// BenchmarkProfileLateWindow measures the satellite-4 optimization: late,
// narrow windows on a breakpoint-heavy profile no longer pay a linear scan
// from time zero.
func BenchmarkProfileLateWindow(b *testing.B) {
	p := buildBusyProfile(b, 10000)
	from, to := units.Time(19990), units.Time(19999)
	b.Run("breakpoints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.BreakpointTimes(from, to)
		}
	})
	b.Run("integral", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Integral(from, to)
		}
	})
}
