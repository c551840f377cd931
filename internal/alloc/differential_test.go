package alloc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gridbw/internal/units"
)

// The differential tests drive a Profile and the flat oracle through one
// schedule and demand bit-equal state and answers. A schedule is a byte
// string, so the seeded property test and the fuzz target share one
// interpreter: each operation consumes an opcode byte and a few operand
// bytes, and a schedule that runs out of bytes ends.
//
// Every schedule runs twice. The untrimmed run is what an offline Ledger
// sees: the two agree bit for bit over the whole schedule, past included.
// In the trimming run some clock advances trim the profile to the new now;
// the oracle is never trimmed. From then on the two must agree bit for bit
// on everything at or after the floor: the segment list from the one
// covering the floor on, every reservation (its start raised to the
// floor), every release (of spans that may begin before it) and every
// query, whose start the oracle is handed raised to the floor. A read of
// the profile wholly before the floor must answer as the oracle does at
// the floor.

const diffCap = units.Bandwidth(1000)

// overRelease is how much a clamped release takes beyond what it booked:
// far enough inside the clamp's tolerance (Eps × capacity) that thousands
// of them on one instant still clamp instead of panicking.
const overRelease = units.Bandwidth(units.Eps) * diffCap / 1e5

type diffResv struct {
	t0, t1 units.Time
	bw     units.Bandwidth
}

type diffRun struct {
	t      testing.TB
	data   []byte
	p      *Profile
	o      *flatProfile
	live   []diffResv
	now    units.Time
	step   int
	blocks int  // most blocks the profile ever had
	trim   bool // whether clock advances may trim the profile
	trims  int
}

// from is t raised to the profile's floor: where the oracle is asked what
// the profile is asked from t.
func (d *diffRun) from(t units.Time) units.Time { return max(t, d.p.floor) }

// trimmed reports whether the profile has forgotten any of its past.
func (d *diffRun) trimmed() bool { return d.trims > 0 }

func (d *diffRun) byte() (byte, bool) {
	if len(d.data) == 0 {
		return 0, false
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b, true
}

// operand is byte() for operands: a schedule cut short reads zeros.
func (d *diffRun) operand() float64 {
	b, _ := d.byte()
	return float64(b)
}

// instant picks a time the way the mode byte says: near now, on a whole
// second, in the past (before the first breakpoint early on), far ahead,
// exactly at the start of a block, or exactly on an existing breakpoint.
func (d *diffRun) instant() units.Time {
	mode, x := int(d.operand()), d.operand()
	switch mode % 8 {
	case 0:
		return units.Time(int(d.now) + int(x)%8)
	case 1:
		return d.now - units.Time(x/4)
	case 2:
		return d.now + units.Time(5000+x*40)
	case 3:
		return d.p.first[int(x)%len(d.p.first)]
	case 4:
		k := int(x) % len(d.p.blocks)
		b := d.p.blocks[k]
		return b.times[int(d.operand())%b.n]
	default:
		return d.now + units.Time(x/8)
	}
}

// span picks a start as instant does and an end that is short, long, a
// whole number of seconds, or again exactly on a block start.
func (d *diffRun) span() (units.Time, units.Time) {
	t0 := d.instant()
	mode, x := int(d.operand()), d.operand()
	var t1 units.Time
	switch mode % 5 {
	case 0:
		t1 = t0 + units.Time(1+int(x)%16)
	case 1:
		t1 = t0 + units.Time(x*8+1)
	case 2:
		t1 = d.p.first[int(x)%len(d.p.first)]
	default:
		t1 = t0 + units.Time(0.05+x/32)
	}
	if t1 <= t0 {
		t1 = t0 + 0.25
	}
	return t0, t1
}

func (d *diffRun) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d: "+format, append([]any{d.step}, args...)...)
}

// sameState demands the two breakpoint lists be bit-equal — once trimmed,
// from the segment covering the floor on, whose start may differ — and
// audits the directory.
func (d *diffRun) sameState() {
	d.t.Helper()
	if err := d.p.CheckInvariant(); err != nil {
		d.fatalf("%v", err)
	}
	var times []units.Time
	var usage []units.Bandwidth
	for _, b := range d.p.blocks {
		times, usage = append(times, b.times[:b.n]...), append(usage, b.usage[:b.n]...)
	}
	ot, ou := d.o.times, d.o.usage
	if d.trimmed() {
		i, o := searchLE(times, d.p.floor), d.o.locate(d.p.floor)
		if usage[i] != ou[o] {
			d.fatalf("segment covering the floor %v = (%v, %v), oracle (%v, %v)", d.p.floor, times[i], usage[i], ot[o], ou[o])
		}
		times, usage, ot, ou = times[i+1:], usage[i+1:], ot[o+1:], ou[o+1:]
	}
	if len(times) != len(ot) {
		d.fatalf("%d breakpoints, oracle %d", len(times), len(ot))
	}
	for i := range times {
		if times[i] != ot[i] || usage[i] != ou[i] {
			d.fatalf("segment %d = (%v, %v), oracle (%v, %v)", i, times[i], usage[i], ot[i], ou[i])
		}
	}
}

// release returns live reservation i (modulo the live count, so any
// operand is valid), plus extra.
func (d *diffRun) release(i int, extra units.Bandwidth) {
	i %= len(d.live)
	r := d.live[i]
	d.live[i] = d.live[len(d.live)-1]
	d.live = d.live[:len(d.live)-1]
	d.p.Release(r.t0, r.t1, r.bw+extra)
	d.o.Release(r.t0, r.t1, r.bw+extra)
}

func (d *diffRun) run() {
	for {
		op, ok := d.byte()
		if !ok {
			break
		}
		d.step++
		switch op % 12 {
		case 0, 1, 2, 3, 4: // reserve, now and then more than can fit
			t0, t1 := d.span()
			bw := units.Bandwidth(d.operand() / 32)
			if op%60 == 0 {
				bw *= 100
			}
			if i := d.o.locate(t0); op%12 == 4 && i > 0 && d.o.usage[i-1] > d.o.usage[i] {
				// Fill a step down exactly: the segment merges into its
				// left neighbour, across a block boundary if t0 heads one.
				t0, bw = d.o.times[i], d.o.usage[i-1]-d.o.usage[i]
				if t1 <= t0 {
					t1 = t0 + 300
				}
			}
			if t0 = d.from(t0); t1 <= t0 {
				t1 = t0 + 0.25
			}
			errP, errO := d.p.Reserve(t0, t1, bw), d.o.Reserve(t0, t1, bw)
			if (errP == nil) != (errO == nil) {
				d.fatalf("Reserve(%v, %v, %v) = %v, oracle %v", t0, t1, bw, errP, errO)
			}
			if errP == nil {
				d.live = append(d.live, diffResv{t0, t1, bw})
			} else if errP.Error() != errO.Error() || !errors.Is(errP, ErrOverCapacity) {
				d.fatalf("refusal %q (over capacity: %v), oracle %q", errP, errors.Is(errP, ErrOverCapacity), errO)
			}
		case 5, 6: // release, every other time a hair too much (the clamp)
			if len(d.live) == 0 {
				continue
			}
			var extra units.Bandwidth
			if op%24 >= 12 {
				extra = overRelease
			}
			d.release(int(d.operand())*256+int(d.operand()), extra)
		case 7: // the clock moves, and in a trimming run now and then the profile forgets the past
			d.now += units.Time(d.operand() / 16)
			if d.trim && op >= 192 {
				d.p.TrimBefore(d.now)
				d.trims++
			}
		case 8: // span queries
			t0, t1 := d.span()
			o0 := d.from(t0)
			bw := units.Bandwidth(d.operand() * 4)
			if t1 <= o0 {
				// Wholly before the floor: it reads as the floor, and a
				// booking there books nothing, so it fits.
				if got, want := d.p.MaxUsedIn(t0, t1), d.o.UsedAt(o0); got != want {
					d.fatalf("MaxUsedIn(%v, %v) behind the floor = %v, oracle at the floor %v", t0, t1, got, want)
				}
				if got := d.p.Integral(t0, t1); got != 0 {
					d.fatalf("Integral(%v, %v) behind the floor = %v", t0, t1, got)
				}
				if !d.p.Fits(t0, t1, bw) {
					d.fatalf("Fits(%v, %v, %v) behind the floor = false", t0, t1, bw)
				}
				break
			}
			if got, want := d.p.MaxUsedIn(t0, t1), d.o.MaxUsedIn(o0, t1); got != want {
				d.fatalf("MaxUsedIn(%v, %v) = %v, oracle %v", t0, t1, got, want)
			}
			if got, want := d.p.FreeIn(t0, t1), d.o.FreeIn(o0, t1); got != want {
				d.fatalf("FreeIn(%v, %v) = %v, oracle %v", t0, t1, got, want)
			}
			if got, want := d.p.Integral(t0, t1), d.o.Integral(o0, t1); got != want {
				d.fatalf("Integral(%v, %v) = %v, oracle %v", t0, t1, got, want)
			}
			if got, want := d.p.Fits(t0, t1, bw), d.o.Fits(o0, t1, bw); got != want {
				d.fatalf("Fits(%v, %v, %v) = %v, oracle %v", t0, t1, bw, got, want)
			}
		case 9: // point and enumeration queries
			t0, t1 := d.span()
			o0 := d.from(t0)
			if got, want := d.p.UsedAt(t0), d.o.UsedAt(o0); got != want {
				d.fatalf("UsedAt(%v) = %v, oracle %v", t0, got, want)
			}
			if got, want := d.p.AppendBreakpointTimes(nil, t0, t1), d.o.AppendBreakpointTimes(nil, o0, t1); !slices.Equal(got, want) {
				d.fatalf("AppendBreakpointTimes(%v, %v) = %v, oracle %v", t0, t1, got, want)
			}
			bw := units.Bandwidth(d.operand() * 4)
			gotT, gotOK := d.p.EarliestFit(o0, t1, 3, bw)
			wantT, wantOK := d.o.EarliestFit(o0, t1, 3, bw)
			if gotT != wantT || gotOK != wantOK {
				d.fatalf("EarliestFit(%v, %v, 3, %v) = %v %v, oracle %v %v", t0, t1, bw, gotT, gotOK, wantT, wantOK)
			}
		case 10: // once in a while release a run of them: blocks drain, merge, empty
			n := int(d.operand())
			if n >= 16 {
				n = 1
			} else {
				n *= 40
			}
			for ; n > 0 && len(d.live) > 0; n-- {
				d.release(int(d.operand())*256+int(d.operand()), 0)
			}
			d.sameState()
		default:
			d.sameState()
		}
		if len(d.p.blocks) > d.blocks {
			d.blocks = len(d.p.blocks)
		}
		if got, want := d.p.Breakpoints(), d.o.Breakpoints(); got != want && !d.trimmed() {
			d.fatalf("Breakpoints() = %d, oracle %d", got, want)
		}
	}
	d.sameState()
	for len(d.live) > 0 {
		d.release(0, 0)
	}
	d.sameState()
	if got, want := d.p.MaxUsedIn(-1e6, 1e6), d.o.MaxUsedIn(d.from(-1e6), 1e6); got != want {
		d.fatalf("drained MaxUsedIn = %v, oracle %v", got, want)
	}
}

func newDiffRun(t testing.TB, data []byte, trim bool) *diffRun {
	return &diffRun{t: t, data: data, p: NewProfile(diffCap), o: newFlatProfile(diffCap), trim: trim}
}

func randomSchedule(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestProfileMatchesFlatRandom is the property test: long seeded schedules
// that grow the profile to many blocks (block splits), drain it again
// (block merges and empties), and must agree with the flat oracle on every
// stored value and every answer along the way — untrimmed over the whole
// schedule, and trimmed from the floor on.
func TestProfileMatchesFlatRandom(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, trim := range []bool{false, true} {
			d := newDiffRun(t, randomSchedule(seed, 60000), trim)
			d.run()
			if d.blocks < 4 {
				t.Errorf("seed %d, trim %v: the profile never grew past %d blocks; the schedule does not exercise block splits", seed, trim, d.blocks)
			}
			if len(d.p.blocks) != 1 || len(d.p.spare) == 0 {
				t.Errorf("seed %d, trim %v: drained profile keeps %d blocks (%d spare); blocks are not merged or emptied", seed, trim, len(d.p.blocks), len(d.p.spare))
			}
			if trim != (d.trims > 0) {
				t.Errorf("seed %d, trim %v: the schedule trimmed %d times", seed, trim, d.trims)
			}
		}
	}
}

// FuzzProfileMatchesFlat lets the fuzzer search for a schedule on which the
// blocked store and the flat list disagree, untrimmed or trimmed.
func FuzzProfileMatchesFlat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 40, 0, 3, 200, 8, 1, 10, 1, 200, 50})
	for seed := int64(100); seed < 104; seed++ {
		f.Add(randomSchedule(seed, 6000))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newDiffRun(t, data, false).run()
		newDiffRun(t, data, true).run()
	})
}

// TestProfileAddAtBlockBoundaries pins the corners of add that a random
// schedule reaches too rarely to rely on. Each case lays the breakpoints
// out in blocks by hand, applies one add to that profile and to the flat
// oracle, and demands the same list and an exact directory.
func TestProfileAddAtBlockBoundaries(t *testing.T) {
	type seg struct {
		t units.Time
		u units.Bandwidth
	}
	// run is n segments from start on, ten seconds apart, whose usage
	// alternates and ends on u.
	run := func(start units.Time, n int, u units.Bandwidth) []seg {
		var segs []seg
		for i := 0; i < n; i++ {
			segs = append(segs, seg{start + units.Time(10*i), u - units.Bandwidth((n-i+1)%2)})
		}
		return segs
	}
	for _, tc := range []struct {
		name   string
		blocks [][]seg
		t0, t1 units.Time
		bw     units.Bandwidth
		want   []int // breakpoints per block afterwards
	}{
		{
			// The block [10, 40) shifts whole, but its head — its maximum —
			// rises to its left neighbour's 5 and merges into the block
			// before: what is left peaks below the old maximum plus bw.
			name:   "head of a wholly shifted block merges left",
			blocks: [][]seg{run(-100, 10, 5), {{10, 3}, {20, 1}, {30, 2}}, {{40, 0}}},
			t0:     10, t1: 40, bw: 2, want: []int{10, 2, 1},
		},
		{
			// A reservation before the first breakpoint left (-5, 0) next
			// to (0, 0). The flat list merges them when the range of a
			// later add opens on the second one, here across a boundary.
			name:   "merge range opens in the previous block",
			blocks: [][]seg{{{-10, 1}, {-5, 0}, {0, 0}}, {{10, 2}, {20, 0}}},
			t0:     10, t1: 20, bw: 1, want: []int{2, 2},
		},
		{
			// A one-segment block released a hair too much clamps to zero,
			// and so must its maximum. Its left neighbour is full, so it
			// stays a block; its right neighbour pours into it.
			name:   "clamped release of a wholly shifted block",
			blocks: [][]seg{run(-10*blockCap, blockCap, 7), {{10, 1}}, run(20, 10, 7)},
			t0:     10, t1: 20, bw: -(1 + overRelease), want: []int{blockCap, 11},
		},
		{
			name:   "a release that fits its blocks into the first leaves one",
			blocks: [][]seg{{{0, 0}, {5, 4}}, {{10, 6}, {20, 4}}, {{30, 5}, {40, 4}}, {{50, 0}}},
			t0:     5, t1: 50, bw: -4, want: []int{5},
		},
		{
			name:   "emptied blocks leave the directory",
			blocks: [][]seg{run(-10*blockCap, blockCap, 1), {{10, 5}}, {{20, 1}}},
			t0:     10, t1: 20, bw: -4, want: []int{blockCap},
		},
		{
			// 40 + 41 breakpoints do not fit one block, but the left one
			// has more than a quarter free: it is filled.
			name:   "a release fills the free slots to its left",
			blocks: [][]seg{run(-400, 40, 3), run(0, 40, 9)},
			t0:     0, t1: 400, bw: -1, want: []int{blockCap, 81 - blockCap},
		},
		{
			// One free slot is not worth shifting a block for.
			name:   "a release leaves a nearly full block alone",
			blocks: [][]seg{run(-10*blockCap, blockCap-1, 3), run(0, 40, 9)},
			t0:     0, t1: 400, bw: -1, want: []int{blockCap - 1, 41},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Profile{capacity: diffCap, floor: units.Time(math.Inf(-1))}
			o := &flatProfile{capacity: diffCap}
			for _, segs := range tc.blocks {
				b := &block{n: len(segs)}
				for j, s := range segs {
					b.times[j], b.usage[j] = s.t, s.u
					o.times, o.usage = append(o.times, s.t), append(o.usage, s.u)
				}
				p.first = append(p.first, segs[0].t)
				p.peak = append(p.peak, maxOf(b.usage[:b.n]))
				p.blocks = append(p.blocks, b)
				p.n += b.n
			}
			d := &diffRun{t: t, p: p, o: o}
			d.sameState()
			p.add(tc.t0, tc.t1, tc.bw)
			o.add(tc.t0, tc.t1, tc.bw)
			d.sameState()
			var got []int
			for _, b := range p.blocks {
				got = append(got, b.n)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("blocks of %v breakpoints afterwards, want %v", got, tc.want)
			}
		})
	}
}
