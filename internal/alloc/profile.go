// Package alloc tracks bandwidth allocations at the overlay access points.
//
// Each access point gets a Profile: a piecewise-constant usage function of
// simulated time. Schedulers reserve [t0, t1) × bw rectangles and the
// profile enforces the capacity constraint of the paper's equation (1):
// at every instant the sum of allocated bandwidths stays within the
// point's capacity. Sharded, the ledger, bundles the profiles of an entire
// network, one lock per access point, and performs the two-sided (ingress
// + egress) reservation of a grant atomically — both sides are checked
// before either is booked.
//
// A profile stores its breakpoints in fixed-capacity blocks under a small
// directory of per-block maxima, so a reservation over a profile thousands
// of breakpoints deep shifts entries inside one block and a query reads
// whole blocks from the directory; DESIGN.md §9 has the layout and the
// exactness argument.
//
// Off-line heuristics (the Algorithm-1 slot family) need the full time
// dimension; on-line heuristics (Algorithms 2 and 3) only need the
// current instant, for which the profile degenerates to a counter. Both
// use this package so capacity arithmetic and its tolerance rules live in
// one place.
package alloc

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// blockCap is the number of breakpoints one block holds: two 512-byte
// arrays, so opening or closing a slot moves a few cache lines whatever
// the depth of the profile.
const blockCap = 64

// DefaultBucketWidth × DefaultBucketCount is the horizon, in seconds, past
// which the benchmark's generator places its far book-ahead share. That is
// all the two constants are for: they sized a time-indexed cache that the
// block maxima replaced, and profiles answer any span the same way now.
const (
	DefaultBucketWidth units.Time = 1
	DefaultBucketCount            = 4096
)

// ErrOverCapacity is what errors.Is matches in every refusal of a
// reservation that would exceed a point's capacity.
var ErrOverCapacity = errors.New("alloc: over capacity")

// CapacityError is the refusal of bandwidth Want over [T0, T1) at a point
// of capacity Cap whose usage over that span already peaks at Used. The
// admission path refuses a third of a saturated batch, so the text is
// rendered only when somebody asks for it.
type CapacityError struct {
	T0, T1          units.Time
	Want, Used, Cap units.Bandwidth
	// Dir and Point name the access point when a ledger made the
	// reservation; Point is -1 when a bare Profile did.
	Dir   topology.Direction
	Point topology.PointID
}

func (e *CapacityError) Error() string {
	s := fmt.Sprintf("alloc: reserving %v on [%v, %v) exceeds capacity %v (used %v)",
		e.Want, e.T0, e.T1, e.Cap, e.Used)
	if e.Point >= 0 {
		s = fmt.Sprintf("alloc: %v %d: %s", e.Dir, e.Point, s)
	}
	return s
}

// Is makes errors.Is(err, ErrOverCapacity) hold.
func (e *CapacityError) Is(target error) bool { return target == ErrOverCapacity }

// Profile is the piecewise-constant bandwidth usage of one access point.
// The zero value is unusable; use NewProfile.
//
// The segment list — usage u_i holds on [t_i, t_i+1), the last on
// [t_last, +inf), and usage is 0 before t_0 — is cut into blocks of at
// most blockCap consecutive segments. The directory has one entry per
// block: its first instant and the maximum of its usages. No block is
// empty.
//
// The floor is the instant before which the profile has forgotten its past
// (TrimBefore); it is −∞ until a trim. Every span method clips its start to
// it: a read before the floor answers as at the floor, and a booking or
// release books only what lies at or after it.
type Profile struct {
	capacity units.Bandwidth
	first    []units.Time
	peak     []units.Bandwidth
	blocks   []*block
	n        int      // breakpoints over all blocks
	spare    []*block // emptied blocks, reused by the next block split
	floor    units.Time
}

type block struct {
	n     int
	times [blockCap]units.Time
	usage [blockCap]units.Bandwidth
}

// NewProfile returns an empty profile for a point with the given capacity.
func NewProfile(capacity units.Bandwidth) *Profile {
	if capacity < 0 {
		panic(fmt.Sprintf("alloc: negative capacity %v", capacity))
	}
	return &Profile{
		capacity: capacity,
		first:    []units.Time{0},
		peak:     []units.Bandwidth{0},
		blocks:   []*block{{n: 1}},
		n:        1,
		floor:    units.Time(math.Inf(-1)),
	}
}

// Capacity reports the point's capacity.
func (p *Profile) Capacity() units.Bandwidth { return p.capacity }

// searchLE returns the last index of sorted ts whose instant is <= t, or 0
// when t predates them all.
func searchLE(ts []units.Time, t units.Time) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ts[mid] <= t {
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

func maxOf(us []units.Bandwidth) units.Bandwidth {
	var m units.Bandwidth
	for _, u := range us {
		if u > m {
			m = u
		}
	}
	return m
}

// locate returns the block and the index in it of the segment covering
// time t. Times before the first breakpoint map to the first segment
// (callers that care compare t with first[0]).
func (p *Profile) locate(t units.Time) (k, j int) {
	k = searchLE(p.first, t)
	b := p.blocks[k]
	return k, searchLE(b.times[:b.n], t)
}

// split ensures a breakpoint exists exactly at t and returns its position.
// The new segment copies its left neighbour's usage (or is a zero-usage
// head when t predates every breakpoint), so no block maximum changes.
func (p *Profile) split(t units.Time) (k, j int) {
	k, j = p.locate(t)
	b := p.blocks[k]
	if b.times[j] == t {
		return k, j
	}
	u, at := b.usage[j], j+1
	if t < b.times[0] {
		u, at = 0, 0
	}
	if b.n == blockCap {
		p.splitBlock(k)
		if at > blockCap/2 {
			k, at = k+1, at-blockCap/2
			b = p.blocks[k]
		}
	}
	copy(b.times[at+1:b.n+1], b.times[at:b.n])
	copy(b.usage[at+1:b.n+1], b.usage[at:b.n])
	b.times[at], b.usage[at] = t, u
	b.n++
	p.n++
	if at == 0 {
		p.first[k] = t
	}
	return k, at
}

// splitBlock moves the upper half of full block k into a new block k+1.
func (p *Profile) splitBlock(k int) {
	const h = blockCap / 2
	b := p.blocks[k]
	var nb *block
	if last := len(p.spare) - 1; last >= 0 {
		nb, p.spare = p.spare[last], p.spare[:last]
	} else {
		nb = new(block)
	}
	nb.n = copy(nb.times[:], b.times[h:])
	copy(nb.usage[:], b.usage[h:])
	b.n = h
	p.peak[k] = maxOf(b.usage[:h])
	p.first = slices.Insert(p.first, k+1, nb.times[0])
	p.peak = slices.Insert(p.peak, k+1, maxOf(nb.usage[:nb.n]))
	p.blocks = slices.Insert(p.blocks, k+1, nb)
}

// dropBlock removes block k, already emptied or merged away, from the
// directory.
func (p *Profile) dropBlock(k int) {
	p.spare = append(p.spare, p.blocks[k])
	p.first = slices.Delete(p.first, k, k+1)
	p.peak = slices.Delete(p.peak, k, k+1)
	p.blocks = slices.Delete(p.blocks, k, k+1)
}

// TrimBefore forgets the profile before t: it raises the floor to t and
// splices every leading block whose successor starts at or before t out of
// the directory and onto the spare list. The block covering t stays, with
// whatever of it lies before t. t must be an instant no booking can still
// start before — the caller's clock, never a future start — and a t at or
// below the floor changes nothing, so the floor only rises.
func (p *Profile) TrimBefore(t units.Time) {
	if !(t > p.floor) {
		return
	}
	p.floor = t
	k := searchLE(p.first, t)
	if k == 0 {
		return
	}
	for _, b := range p.blocks[:k] {
		p.n -= b.n
	}
	p.spare = append(p.spare, p.blocks[:k]...)
	p.first = slices.Delete(p.first, 0, k)
	p.peak = slices.Delete(p.peak, 0, k)
	p.blocks = slices.Delete(p.blocks, 0, k)
}

// clip raises the start of a span to the floor.
func (p *Profile) clip(t units.Time) units.Time {
	if t < p.floor {
		return p.floor
	}
	return t
}

// validSpan panics on degenerate spans; all public span methods share it.
func validSpan(t0, t1 units.Time) {
	if t1 <= t0 {
		panic(fmt.Sprintf("alloc: empty span [%v, %v)", t0, t1))
	}
}

// MaxUsedIn reports the maximum usage over [t0, t1): a scan of the block
// the span starts in, the directory maxima of the blocks it covers whole,
// and a scan of the block it ends in.
func (p *Profile) MaxUsedIn(t0, t1 units.Time) units.Bandwidth {
	validSpan(t0, t1)
	if t0 = p.clip(t0); t1 <= t0 {
		return p.UsedAt(t0)
	}
	var m units.Bandwidth
	k, j := p.locate(t0)
	for ; k < len(p.blocks); k, j = k+1, 0 {
		b := p.blocks[k]
		if k+1 == len(p.blocks) || p.first[k+1] > t1 {
			for ; j < b.n && b.times[j] < t1; j++ {
				if b.usage[j] > m {
					m = b.usage[j]
				}
			}
			break
		}
		u := p.peak[k]
		if j > 0 {
			u = maxOf(b.usage[j:b.n])
		}
		if u > m {
			m = u
		}
	}
	return m
}

// UsedAt reports the usage at instant t.
func (p *Profile) UsedAt(t units.Time) units.Bandwidth {
	if t = p.clip(t); t < p.first[0] {
		return 0
	}
	k, j := p.locate(t)
	return p.blocks[k].usage[j]
}

// FreeIn reports the minimum free capacity over [t0, t1).
func (p *Profile) FreeIn(t0, t1 units.Time) units.Bandwidth {
	free := p.capacity - p.MaxUsedIn(t0, t1)
	if free < 0 {
		return 0
	}
	return free
}

// Fits reports whether an additional bw over [t0, t1) stays within
// capacity (with the package-wide tolerance).
func (p *Profile) Fits(t0, t1 units.Time, bw units.Bandwidth) bool {
	return p.refusal(t0, t1, bw) == nil
}

// refusal is the one capacity check: nil when an additional bw over
// [t0, t1) fits, else the refusal, which callers holding the point's name
// complete with Dir and Point. It returns the concrete type, so compare
// the result with nil before converting it to error. A span that ends at or
// before the floor books nothing (add), so it always fits: a replay may
// re-book such a grant, but a live caller must not decide one, because
// nothing here can check it (PairTx.Floor, Sharded.Floor).
func (p *Profile) refusal(t0, t1 units.Time, bw units.Bandwidth) *CapacityError {
	if bw < 0 {
		panic(fmt.Sprintf("alloc: negative reservation %v", bw))
	}
	if validSpan(t0, t1); t1 <= p.floor {
		return nil
	}
	used := p.MaxUsedIn(t0, t1)
	if units.FitsWithin(used, bw, p.capacity) {
		return nil
	}
	return &CapacityError{T0: t0, T1: t1, Want: bw, Used: used, Cap: p.capacity, Point: -1}
}

// Reserve adds bw over [t0, t1). It returns a *CapacityError (and changes
// nothing) if the reservation would exceed capacity.
func (p *Profile) Reserve(t0, t1 units.Time, bw units.Bandwidth) error {
	if e := p.refusal(t0, t1, bw); e != nil {
		return e
	}
	p.add(t0, t1, bw)
	return nil
}

// Release subtracts bw over [t0, t1). Releasing more than is allocated is
// a scheduler bug and panics.
func (p *Profile) Release(t0, t1 units.Time, bw units.Bandwidth) {
	validSpan(t0, t1)
	if bw < 0 {
		panic(fmt.Sprintf("alloc: negative release %v", bw))
	}
	p.add(t0, t1, -bw)
}

// add shifts every segment of [t0, t1) by bw, in time order, and in the
// same pass merges each segment that now equals its left neighbour. The
// merge range is the shifted segments plus one on either side: everything
// else is untouched and was already merged. Entries only ever move inside
// their own block, except that a release pours them into free slots of the
// block to the left (pourLeft); a block left empty leaves the directory.
// Only the part of the span at or after the floor is shifted.
func (p *Profile) add(t0, t1 units.Time, bw units.Bandwidth) {
	if t0 = p.clip(t0); t1 <= t0 {
		return
	}
	k, from := p.split(t0)
	nb := len(p.blocks)
	k1, j1 := p.split(t1)
	if len(p.blocks) > nb {
		k, from = p.locate(t0) // the second split cut a block in two and may have moved it
	}
	// prev is the usage of the last segment kept. The head of the list is
	// never merged away: NaN equals nothing.
	j, prev := from, units.Bandwidth(math.NaN())
	if lk, lj, ok := p.before(k, j); ok {
		prev = p.blocks[lk].usage[lj]
		// The merge range opens one segment early. That segment differs
		// from its own left neighbour unless a reservation before the
		// first breakpoint left a zero-usage head next to a zero: start
		// there then, so that it goes.
		if mk, mj, ok := p.before(lk, lj); ok && p.blocks[mk].usage[mj] == prev {
			if lk < k {
				from = p.blocks[lk].n
			}
			k, j = lk, lj
		}
	}
	for ; k <= k1; j, from = 0, 0 {
		b := p.blocks[k]
		// Segments [from, to) shift; [j, from) and [to, end) are only
		// compared with their new left neighbour.
		n, to, end := b.n, b.n, b.n
		if k == k1 {
			to, end = j1, j1+1
		}
		r := j
		if r == from {
			// The long run of a deep profile: segments that shift and
			// stay where they are.
			us := b.usage[:to]
			for ; r < to; r++ {
				u := us[r] + bw
				if u < 0 {
					u = p.clamp(u)
				}
				if u == prev {
					break
				}
				us[r], prev = u, u
			}
		}
		w := r
		for ; r < end; r++ {
			u := b.usage[r]
			if from <= r && r < to {
				if u += bw; u < 0 {
					u = p.clamp(u)
				}
			}
			if u != prev {
				b.times[w], b.usage[w], prev = b.times[r], u, u
				w++
			}
		}
		// Only the last block has segments past the merge range.
		if w < end {
			copy(b.times[w:], b.times[end:n])
			copy(b.usage[w:], b.usage[end:n])
		}
		w += n - end
		p.n -= n - w
		b.n = w
		if w == 0 {
			p.dropBlock(k)
			k1--
			continue
		}
		// A block shifted whole with nothing merged away shifts its
		// maximum likewise: rounding and the clamp are monotone, so they
		// commute with max. Any other block is rescanned.
		var peak units.Bandwidth
		if j+from > 0 || to < n || w < n {
			peak = maxOf(b.usage[:w])
		} else if peak = p.peak[k] + bw; peak < 0 {
			peak = 0
		}
		p.first[k], p.peak[k] = b.times[0], peak
		if bw < 0 && k > 0 && p.pourLeft(k) {
			k1--
			continue
		}
		k++
	}
}

// pourLeft moves breakpoints from the front of block k into the free slots
// of block k-1 — all of them if they fit, in which case block k goes and
// pourLeft reports true, else as many as fit once a quarter of a block is
// free (a slot or two is not worth shifting block k for). Only releases
// pour, so a span drained by cancels ends up in full blocks instead of as
// sparse as the last release left it, while reservations keep finding room
// to insert into.
func (p *Profile) pourLeft(k int) (emptied bool) {
	a, b := p.blocks[k-1], p.blocks[k]
	m := min(b.n, blockCap-a.n)
	if m < b.n && m < blockCap/4 {
		return false
	}
	copy(a.times[a.n:], b.times[:m])
	copy(a.usage[a.n:], b.usage[:m])
	a.n += m
	if u := maxOf(b.usage[:m]); u > p.peak[k-1] {
		p.peak[k-1] = u
	}
	if m == b.n {
		p.dropBlock(k)
		return true
	}
	copy(b.times[:], b.times[m:b.n])
	b.n = copy(b.usage[:], b.usage[m:b.n])
	p.first[k], p.peak[k] = b.times[0], maxOf(b.usage[:b.n])
	return false
}

// before returns the position of the segment preceding (k, j), if any.
func (p *Profile) before(k, j int) (int, int, bool) {
	if j > 0 {
		return k, j - 1, true
	}
	if k > 0 {
		return k - 1, p.blocks[k-1].n - 1, true
	}
	return 0, 0, false
}

// clamp absorbs the rounding residue of a release: usage a hair below
// zero becomes zero, anything further below is a scheduler bug.
func (p *Profile) clamp(u units.Bandwidth) units.Bandwidth {
	if u < -units.Bandwidth(units.Eps)*max(p.capacity, 1) {
		panic(fmt.Sprintf("alloc: release drives usage negative (%v)", u))
	}
	return 0
}

// Integral reports ∫ usage dt over [t0, t1) — allocated volume, used by
// the utilization metrics. The scan starts at the segment covering t0
// (binary search), so late windows of long-lived profiles stay cheap.
// Nothing before the floor is counted.
func (p *Profile) Integral(t0, t1 units.Time) units.Volume {
	validSpan(t0, t1)
	t0 = p.clip(t0)
	var total units.Volume
	k, j := p.locate(t0)
	for ; k < len(p.blocks); k, j = k+1, 0 {
		b := p.blocks[k]
		for ; j < b.n; j++ {
			segStart, segEnd := b.times[j], t1
			if segStart >= t1 {
				return total
			}
			if j+1 < b.n {
				segEnd = b.times[j+1]
			} else if k+1 < len(p.blocks) {
				segEnd = p.first[k+1]
			}
			if segEnd > t1 {
				segEnd = t1
			}
			if segStart < t0 {
				segStart = t0
			}
			if segEnd > segStart {
				total += b.usage[j].For(segEnd - segStart)
			}
		}
	}
	return total
}

// Breakpoints reports the number of internal segments; exported for tests
// and capacity planning of long simulations.
func (p *Profile) Breakpoints() int { return p.n }

// BreakpointTimes returns the instants at which usage changes, restricted
// to (from, to]. Used by the book-ahead planner to enumerate candidate
// start times: free capacity is piecewise constant, so the earliest
// feasible start is either `from` or one of these.
func (p *Profile) BreakpointTimes(from, to units.Time) []units.Time {
	return p.AppendBreakpointTimes(nil, from, to)
}

// AppendBreakpointTimes appends the breakpoints of (from, to] to dst and
// returns it — the allocation-free form of BreakpointTimes for callers
// with a reusable scratch slice. The scan starts at the first breakpoint
// after `from` (binary search via locate), so enumerating candidates on a
// long-lived profile costs O(log n + answer). No breakpoint at or before
// the floor is listed.
func (p *Profile) AppendBreakpointTimes(dst []units.Time, from, to units.Time) []units.Time {
	from = p.clip(from)
	k, j := p.locate(from)
	if p.blocks[k].times[j] <= from {
		// locate returned the segment covering `from`; its breakpoint is
		// not strictly after it. (Only when `from` predates every
		// breakpoint is the located one already past it.)
		j++
	}
	for ; k < len(p.blocks); k, j = k+1, 0 {
		b := p.blocks[k]
		for ; j < b.n; j++ {
			if b.times[j] > to {
				return dst
			}
			dst = append(dst, b.times[j])
		}
	}
	return dst
}

// EarliestFit reports the earliest start t in [from, latest] such that an
// additional bw over [t, t+dur) fits, and whether one exists.
func (p *Profile) EarliestFit(from, latest units.Time, dur units.Time, bw units.Bandwidth) (units.Time, bool) {
	if dur <= 0 {
		panic(fmt.Sprintf("alloc: non-positive duration %v", dur))
	}
	if latest < from {
		return 0, false
	}
	if p.Fits(from, from+dur, bw) {
		return from, true
	}
	for _, t := range p.BreakpointTimes(from, latest) {
		if p.Fits(t, t+dur, bw) {
			return t, true
		}
	}
	return 0, false
}

// CheckInvariant verifies the profile never exceeds capacity (beyond
// tolerance), is sorted within and across blocks, and that every directory
// entry — first instant, maximum — equals a rescan of its block. It is
// used by property tests and the ledgers' audit mode.
func (p *Profile) CheckInvariant() error {
	i := 0
	var last units.Time
	for k, b := range p.blocks {
		if b.n < 1 || b.n > blockCap {
			return fmt.Errorf("alloc: block %d holds %d breakpoints", k, b.n)
		}
		if p.first[k] != b.times[0] {
			return fmt.Errorf("alloc: block %d directory start %v != first breakpoint %v", k, p.first[k], b.times[0])
		}
		if got := maxOf(b.usage[:b.n]); p.peak[k] != got {
			return fmt.Errorf("alloc: block %d directory maximum %v != rescan %v", k, p.peak[k], got)
		}
		for j, u := range b.usage[:b.n] {
			if i > 0 && b.times[j] <= last {
				return fmt.Errorf("alloc: breakpoints unsorted at %d", i)
			}
			if u < 0 {
				return fmt.Errorf("alloc: negative usage %v at segment %d", u, i)
			}
			if !units.FitsWithin(u, 0, p.capacity) {
				return fmt.Errorf("alloc: usage %v exceeds capacity %v at segment %d", u, p.capacity, i)
			}
			last = b.times[j]
			i++
		}
	}
	if i != p.n || len(p.first) != len(p.blocks) || len(p.peak) != len(p.blocks) {
		return fmt.Errorf("alloc: %d breakpoints in %d blocks, directory says %d in %d/%d",
			i, len(p.blocks), p.n, len(p.first), len(p.peak))
	}
	return nil
}
