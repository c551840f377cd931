package main

import (
	"math"
	"strconv"

	"gridbw/internal/alloc"
	"gridbw/internal/server"
)

// rng is splitmix64: cheap enough to seed one stream per operation, so
// the content of operation j is a pure function of (seed, phase, j) no
// matter which worker goroutine ends up sending it. (internal/rng wraps
// math/rand, whose sources cost kilobytes to seed — per operation, that
// would be the generator's garbage in allocs_per_admit.)
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 is uniform in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.float64() }

// exp draws an exponential with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float64()) }

// Phase tags keep the op streams of one seed independent.
const (
	phaseWarmup uint64 = iota + 1
	phaseClosed
	phaseOpen
	phaseTrace
	phaseDrill
	phaseSchedule
	phaseYard
)

// opStream returns the generator of operation j of a phase.
func opStream(seed int64, phase uint64, j int) rng {
	r := rng{s: uint64(seed)*0x2545f4914f6cdd1d ^ phase<<56 ^ uint64(j)}
	r.next() // decorrelate neighbouring j
	return r
}

// reqDraw is one generated reservation request, times relative to the
// instant it is sent.
type reqDraw struct {
	from, to int
	volume   float64 // bytes
	maxRate  float64 // bytes/s
	startIn  float64 // book-ahead offset, 0 = now
	window   float64 // deadline − start
	gap      float64 // virtual inter-arrival gap this request stands for
}

// ringSpan is the time the ledger's bucket ring covers
// (alloc.DefaultBucketCount one-second buckets). Near book-ahead starts
// within a quarter of it; the far third starts two ring spans out, where
// MaxUsedIn can only answer from the raw breakpoint scan.
const ringSpan = float64(alloc.DefaultBucketCount) * float64(alloc.DefaultBucketWidth)

func (w *workloadSpec) drawRequest(r *rng, vols []float64) reqDraw {
	d := reqDraw{
		gap:     r.exp(w.meanGap()),
		volume:  vols[r.intn(len(vols))],
		maxRate: r.uniform(float64(w.rateMin), float64(w.rateMax)),
		from:    r.intn(w.points),
		to:      r.intn(w.points),
	}
	d.window = r.uniform(slackMin, slackMax) * d.volume / d.maxRate
	if w.bookAhead > 0 && r.float64() < w.bookAhead {
		if r.intn(3) == 0 {
			d.startIn = 2*ringSpan + r.uniform(0, ringSpan/4)
		} else {
			d.startIn = r.uniform(1, ringSpan/4)
		}
	}
	return d
}

// op is one generated client operation.
type op struct {
	kind opKind
	reqs []reqDraw // submit: 1, batch: batchSize, else empty
	// resend marks a submit that re-sends an earlier key (idempotency
	// path); pick selects which one among the eligible recent submits.
	resend bool
	// pick is the draw cancel/lookup/resend use to choose their target,
	// and old marks a lookup aimed at an ID older than the retention ring.
	pick uint64
	old  bool
}

// resendShare of submits re-send a recent idempotency key.
const resendShare = 0.02

// genOp generates operation j of a phase. vols is w.volumes(), passed in
// so the hot loop does not rebuild it.
func (w *workloadSpec) genOp(seed int64, phase uint64, j int, vols []float64, reqs []reqDraw) op {
	r := opStream(seed, phase, j)
	total := 0
	for _, m := range w.mix {
		total += m
	}
	x := r.intn(total)
	o := op{pick: r.next()}
	for k, m := range w.mix {
		if x < m {
			o.kind = opKind(k)
			break
		}
		x -= m
	}
	switch o.kind {
	case opSubmit:
		o.resend = r.float64() < resendShare
		o.reqs = append(reqs[:0], w.drawRequest(&r, vols))
	case opBatch:
		o.reqs = reqs[:0]
		for i := 0; i < w.batchSize; i++ {
			o.reqs = append(o.reqs, w.drawRequest(&r, vols))
		}
	case opLookup:
		o.old = r.intn(2) == 0
	}
	return o
}

// schedule draws the due times (ns from its start) of open-loop round
// number round: a Poisson process at rate ops/s covering dur seconds.
func schedule(seed int64, round int, rate, dur float64) []int64 {
	r := opStream(seed, phaseSchedule, round)
	var out []int64
	t := 0.0
	for {
		t += r.exp(1 / rate)
		if t >= dur {
			return out
		}
		out = append(out, int64(t*1e9))
	}
}

// idemKey is the idempotency key of item i of operation j. Every
// submission carries one: the client would otherwise draw a random key,
// and the re-send path needs to name an earlier submission.
func idemKey(seed int64, phase uint64, j, i int) string {
	b := make([]byte, 0, 32)
	b = append(b, 'b')
	b = strconv.AppendInt(b, seed, 36)
	b = append(b, '.')
	b = strconv.AppendUint(b, phase, 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(j), 36)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(i), 10)
	return string(b)
}

// wireRequest renders a draw as the client's request shape at virtual
// instant now (service seconds): absolute NotBefore/Deadline, numeric
// fields only.
func (d reqDraw) wireRequest(now float64, key string, durable bool) server.SubmitRequest {
	start := now + d.startIn
	return server.SubmitRequest{
		From: d.from, To: d.to,
		VolumeBytes: d.volume, MaxRateBps: d.maxRate,
		NotBeforeS: start, DeadlineS: start + d.window,
		IdempotencyKey: key, Durable: durable,
	}
}
