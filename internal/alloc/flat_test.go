package alloc

import (
	"fmt"

	"gridbw/internal/units"
)

// flatProfile is the reference oracle for Profile: the two flat sorted
// slices (times, usage) the blocked store replaced, with the operations as
// they were — split opens a slot by shifting the tail, add shifts the
// touched segments and coalesceRange closes the gaps. It is kept verbatim
// because Profile promises bit-identical stored values, and therefore
// bit-identical answers, to this list.
type flatProfile struct {
	capacity units.Bandwidth
	// times is sorted and starts the segment list: usage[i] holds on
	// [times[i], times[i+1]), and usage[len-1] holds on
	// [times[len-1], +inf). An empty profile has one implicit segment
	// of zero usage on (-inf, +inf); we materialize it lazily.
	times []units.Time
	usage []units.Bandwidth
}

// newFlatProfile returns an empty profile for a point with the given capacity.
func newFlatProfile(capacity units.Bandwidth) *flatProfile {
	if capacity < 0 {
		panic(fmt.Sprintf("alloc: negative capacity %v", capacity))
	}
	return &flatProfile{
		capacity: capacity,
		times:    []units.Time{0},
		usage:    []units.Bandwidth{0},
	}
}

// locate returns the segment index covering time t. Times before the first
// breakpoint map to segment 0 (usage there is always 0 for t < 0 workloads
// because reservations create their own breakpoints).
func (p *flatProfile) locate(t units.Time) int {
	lo, hi := 0, len(p.times)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.times[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// split ensures a breakpoint exists exactly at t and returns its index.
func (p *flatProfile) split(t units.Time) int {
	i := p.locate(t)
	if p.times[i] == t {
		return i
	}
	if t < p.times[0] {
		// Prepend a zero-usage segment starting at t.
		p.times = append([]units.Time{t}, p.times...)
		p.usage = append([]units.Bandwidth{0}, p.usage...)
		return 0
	}
	// Insert after i, copying usage (the segment is split, value unchanged).
	p.times = append(p.times, 0)
	copy(p.times[i+2:], p.times[i+1:])
	p.times[i+1] = t
	p.usage = append(p.usage, 0)
	copy(p.usage[i+2:], p.usage[i+1:])
	p.usage[i+1] = p.usage[i]
	return i + 1
}

// MaxUsedIn reports the maximum usage over [t0, t1): the exact
// breakpoint-list scan.
func (p *flatProfile) MaxUsedIn(t0, t1 units.Time) units.Bandwidth {
	validSpan(t0, t1)
	var max units.Bandwidth
	i := p.locate(t0)
	for ; i < len(p.times); i++ {
		if p.times[i] >= t1 {
			break
		}
		segEnd := units.Time(0)
		if i+1 < len(p.times) {
			segEnd = p.times[i+1]
		}
		// Skip segments entirely before t0 (only possible for i == locate(t0)
		// when t0 predates all breakpoints — usage there is 0 anyway).
		if i+1 < len(p.times) && segEnd <= t0 {
			continue
		}
		if p.usage[i] > max {
			max = p.usage[i]
		}
	}
	return max
}

// UsedAt reports the usage at instant t.
func (p *flatProfile) UsedAt(t units.Time) units.Bandwidth {
	i := p.locate(t)
	if t < p.times[0] {
		return 0
	}
	return p.usage[i]
}

// FreeIn reports the minimum free capacity over [t0, t1).
func (p *flatProfile) FreeIn(t0, t1 units.Time) units.Bandwidth {
	free := p.capacity - p.MaxUsedIn(t0, t1)
	if free < 0 {
		return 0
	}
	return free
}

// Fits reports whether an additional bw over [t0, t1) stays within
// capacity (with the package-wide tolerance).
func (p *flatProfile) Fits(t0, t1 units.Time, bw units.Bandwidth) bool {
	if bw < 0 {
		panic(fmt.Sprintf("alloc: negative reservation %v", bw))
	}
	return units.FitsWithin(p.MaxUsedIn(t0, t1), bw, p.capacity)
}

// Reserve adds bw over [t0, t1). It returns an error (and changes nothing)
// if the reservation would exceed capacity.
func (p *flatProfile) Reserve(t0, t1 units.Time, bw units.Bandwidth) error {
	validSpan(t0, t1)
	if !p.Fits(t0, t1, bw) {
		return fmt.Errorf("alloc: reserving %v on [%v, %v) exceeds capacity %v (used %v)",
			bw, t0, t1, p.capacity, p.MaxUsedIn(t0, t1))
	}
	p.add(t0, t1, bw)
	return nil
}

// Release subtracts bw over [t0, t1). Releasing more than is allocated is
// a scheduler bug and panics.
func (p *flatProfile) Release(t0, t1 units.Time, bw units.Bandwidth) {
	validSpan(t0, t1)
	if bw < 0 {
		panic(fmt.Sprintf("alloc: negative release %v", bw))
	}
	p.add(t0, t1, -bw)
}

func (p *flatProfile) add(t0, t1 units.Time, bw units.Bandwidth) {
	i0 := p.split(t0)
	i1 := p.split(t1)
	for i := i0; i < i1; i++ {
		u := p.usage[i] + bw
		if u < 0 {
			if u < -units.Bandwidth(units.Eps)*max(p.capacity, 1) {
				panic(fmt.Sprintf("alloc: release drives usage negative (%v) on segment %d", u, i))
			}
			u = 0
		}
		p.usage[i] = u
	}
	// Only segments in [i0-1, i1] can have gained an equal neighbor: the
	// shifted range moved by one constant (plus the clamp), everything
	// else is untouched and was already coalesced.
	p.coalesceRange(i0-1, i1)
}

// coalesceRange merges adjacent equal-usage segments whose index lies in
// [lo, hi], shifting the tail down over any removed entries. Bounding the
// scan keeps add O(touched segments) instead of rescanning the profile.
func (p *flatProfile) coalesceRange(lo, hi int) {
	if lo < 1 {
		lo = 1
	}
	if hi > len(p.times)-1 {
		hi = len(p.times) - 1
	}
	w := lo
	for i := lo; i <= hi; i++ {
		if p.usage[i] == p.usage[w-1] {
			continue
		}
		p.times[w] = p.times[i]
		p.usage[w] = p.usage[i]
		w++
	}
	if w <= hi {
		n := copy(p.times[w:], p.times[hi+1:])
		copy(p.usage[w:], p.usage[hi+1:])
		p.times = p.times[:w+n]
		p.usage = p.usage[:w+n]
	}
}

// Integral reports ∫ usage dt over [t0, t1) — allocated volume, used by
// the utilization metrics. The scan starts at the segment covering t0
// (binary search), so late windows of long-lived profiles stay cheap.
func (p *flatProfile) Integral(t0, t1 units.Time) units.Volume {
	validSpan(t0, t1)
	var total units.Volume
	for i := p.locate(t0); i < len(p.times); i++ {
		segStart := p.times[i]
		segEnd := t1
		if i+1 < len(p.times) && p.times[i+1] < t1 {
			segEnd = p.times[i+1]
		}
		if segStart < t0 {
			segStart = t0
		}
		if segEnd <= segStart {
			continue
		}
		if segStart >= t1 {
			break
		}
		total += p.usage[i].For(segEnd - segStart)
	}
	return total
}

// Breakpoints reports the number of internal segments; exported for tests
// and capacity planning of long simulations.
func (p *flatProfile) Breakpoints() int { return len(p.times) }

// AppendBreakpointTimes appends the breakpoints of (from, to] to dst and
// returns it — the allocation-free form of BreakpointTimes for callers
// with a reusable scratch slice.
func (p *flatProfile) AppendBreakpointTimes(dst []units.Time, from, to units.Time) []units.Time {
	if to < from {
		return dst
	}
	i := p.locate(from)
	if p.times[i] <= from {
		// locate returned the segment covering `from`; its breakpoint is
		// not strictly after it. (Only when `from` predates every
		// breakpoint is times[locate(from)] > from already.)
		i++
	}
	for ; i < len(p.times) && p.times[i] <= to; i++ {
		dst = append(dst, p.times[i])
	}
	return dst
}

// EarliestFit reports the earliest start t in [from, latest] such that an
// additional bw over [t, t+dur) fits, and whether one exists.
func (p *flatProfile) EarliestFit(from, latest units.Time, dur units.Time, bw units.Bandwidth) (units.Time, bool) {
	if dur <= 0 {
		panic(fmt.Sprintf("alloc: non-positive duration %v", dur))
	}
	if latest < from {
		return 0, false
	}
	if p.Fits(from, from+dur, bw) {
		return from, true
	}
	for _, t := range p.AppendBreakpointTimes(nil, from, latest) {
		if p.Fits(t, t+dur, bw) {
			return t, true
		}
	}
	return 0, false
}
