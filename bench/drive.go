package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gridbw/internal/check"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
)

// resRef is an accepted reservation a worker may later cancel or look up.
type resRef struct {
	id         int
	rate       float64
	sigma, tau float64
	cross      bool // decided by the cross-shard hold protocol
	cancelled  bool
}

// sentSubmit remembers a fresh single submit for the idempotent re-send
// path: the exact request, and the decision it must get again.
type sentSubmit struct {
	seq int64 // submissions issued before it, all clients
	req server.SubmitRequest
	dec server.ReservationJSON
}

// opRec is the record of one executed operation. Times are ns from the
// phase start; due == start in a closed loop.
type opRec struct {
	kind            opKind
	due, start, end int64
	free            int64 // when the worker became free to take this op
	items, accepted int32
	failed          bool
	cross           bool // a single submit the router decides by the hold protocol
	yard            bool // sent to the yardstick, not to the program under test
}

// driver is the state shared by the client goroutines of one run.
type driver struct {
	w    *workloadSpec
	t    *stack
	yard *yardstick // nil: the loops drive the program under test only
	seed int64
	vols []float64
	tr   *tracer // nil outside the traced pass
	// afterOp, when set, runs after every closed-loop op (the traced
	// pass samples follower lag there).
	afterOp func()

	// submissions counts submission items issued (fresh and re-sent),
	// the unit the re-send window is measured in.
	submissions atomic.Int64

	mu     sync.Mutex
	recent []sentSubmit // ring of the last len(recent) fresh submits
	nrec   int
	ids    bitset // every reservation ID a fresh decision carried
	// cancelledIDs are the reservations this run cancelled. A re-send of
	// a cancelled cross-shard grant is answered by the aborted hold's
	// tombstone — a rejection — where a daemon answers the cancelled
	// grant, so re-sends steer clear of them.
	cancelledIDs bitset
	hist         *check.Recorder

	// Aggregates over fresh decisions, guarded by mu.
	decided, acceptedN int64
	grantedVolume      float64
	failures           []string // first few check/transport failures
	failed             int64
	capacityFindings   int64 // history-check capacity findings (see finalChecks)
	notFound           int64 // lookups answered 404
	conflicts          int64 // cancels answered 409 (expired in flight)

	old     []int // accepted IDs from early warm-up, for "old" lookups
	workers []*worker
}

// resendWindow bounds how far back (in submissions) a re-sent key may
// lie: half the 4096-entry idempotency ring, so the original decision is
// still cached whatever the batch mix put in between.
const resendWindow = 2048

func newDriver(w *workloadSpec, t *stack, seed int64) *driver {
	d := &driver{w: w, t: t, seed: seed, vols: w.volumes(), recent: make([]sentSubmit, 1024)}
	if t.kind != topoSingle {
		// internal/check verifies the routed and the quorum histories.
		d.hist = check.NewRecorder()
	}
	return d
}

func (d *driver) fail(format string, args ...any) {
	d.mu.Lock()
	d.failed++
	if len(d.failures) < 8 {
		d.failures = append(d.failures, fmt.Sprintf(format, args...))
	}
	d.mu.Unlock()
}

// worker is one client goroutine's private state.
type worker struct {
	d    *driver
	refs []resRef // ring of own accepted reservations
	nref int
	reqs []reqDraw
	wire []server.SubmitRequest
	recs []opRec
}

const refRing = 4096

func (d *driver) newWorker(capacity int) *worker {
	return &worker{d: d, refs: make([]resRef, refRing), recs: make([]opRec, 0, capacity)}
}

func (wk *worker) remember(r resRef) {
	wk.refs[wk.nref%refRing] = r
	wk.nref++
}

// relEps absorbs float rounding between the JSON/binary wire and the
// harness's own arithmetic.
const relEps = 1e-6

// checkDecision verifies one accepted decision against its request: the
// granted rate within [MinRate, MaxRate], the transfer inside the window,
// and rate × duration delivering the volume.
func checkDecision(req server.SubmitRequest, dec server.ReservationJSON) error {
	if !dec.Accepted {
		return nil
	}
	window := req.DeadlineS - req.NotBeforeS
	switch {
	case dec.RateBps > req.MaxRateBps*(1+relEps):
		return fmt.Errorf("reservation %d: rate %g above MaxRate %g", dec.ID, dec.RateBps, req.MaxRateBps)
	case dec.RateBps < req.VolumeBytes/window*(1-relEps):
		return fmt.Errorf("reservation %d: rate %g below MinRate %g", dec.ID, dec.RateBps, req.VolumeBytes/window)
	case dec.TauS > req.DeadlineS*(1+relEps):
		return fmt.Errorf("reservation %d: tau %g past deadline %g", dec.ID, dec.TauS, req.DeadlineS)
	case dec.SigmaS < req.NotBeforeS*(1-relEps):
		return fmt.Errorf("reservation %d: sigma %g before NotBefore %g", dec.ID, dec.SigmaS, req.NotBeforeS)
	}
	if got := dec.RateBps * (dec.TauS - dec.SigmaS); got < req.VolumeBytes*(1-1e-4) || got > req.VolumeBytes*(1+1e-4) {
		return fmt.Errorf("reservation %d: grant moves %g bytes, request is %g", dec.ID, got, req.VolumeBytes)
	}
	return nil
}

// sameDecision reports whether a re-send was answered with the original
// decision: the same reservation, the same verdict, the same grant. State
// and Reason are left out — state follows the clock (booked → active →
// expired) and a rejection's free-text reason depends on which side of a
// cross-shard hold answers the retry.
func sameDecision(a, b server.ReservationJSON) bool {
	return a.ID == b.ID && a.Accepted == b.Accepted && a.RateBps == b.RateBps &&
		a.SigmaS == b.SigmaS && a.TauS == b.TauS
}

// crossPair reports whether the router decides this pair by the two-phase
// hold protocol.
func (d *driver) crossPair(from, to int) bool {
	if d.t.rt == nil {
		return false
	}
	ring := d.t.rt.Ring()
	return ring.OwnerIn(from) != ring.OwnerEg(to)
}

// recordFresh folds one fresh decision into the run's aggregates and
// checks. It returns false when the decision failed a check.
func (wk *worker) recordFresh(req server.SubmitRequest, dec server.ReservationJSON) bool {
	d := wk.d
	ok := true
	if err := checkDecision(req, dec); err != nil {
		d.fail("%v", err)
		ok = false
	}
	if d.w.durable && dec.Durability != server.DurabilityReplicated {
		d.fail("reservation %d: durability %q, want replicated", dec.ID, dec.Durability)
		ok = false
	}
	cross := d.crossPair(req.From, req.To)
	d.mu.Lock()
	fresh := d.ids.set(dec.ID)
	d.decided++
	if dec.Accepted {
		d.acceptedN++
		d.grantedVolume += req.VolumeBytes
	}
	d.mu.Unlock()
	if !fresh {
		d.fail("reservation ID %d issued twice", dec.ID)
		ok = false
	}
	if d.hist != nil {
		routed := dec.Routed
		if cross && dec.Accepted {
			// The binary batch codec carries no routed marker; the ring
			// says which decisions went through the hold protocol.
			routed = server.RoutedCrossShard
		}
		d.hist.Record(check.Op{
			Node: "entry", Kind: check.OpSubmit, Key: req.IdempotencyKey, ID: dec.ID,
			Accepted: dec.Accepted, Durable: req.Durable, Durability: dec.Durability, Routed: routed,
			Ingress: req.From, Egress: req.To, VolumeB: req.VolumeBytes,
			RateBps: dec.RateBps, SigmaS: dec.SigmaS, TauS: dec.TauS,
		})
	}
	if dec.Accepted {
		wk.remember(resRef{id: dec.ID, rate: dec.RateBps, sigma: dec.SigmaS, tau: dec.TauS, cross: cross})
	}
	return ok
}

// send runs operation j of a measured loop: against the yardstick when one
// is attached and j is its turn, else against the program under test.
func (wk *worker) send(ctx context.Context, phase uint64, j int) opRec {
	d := wk.d
	if d.yard == nil || j%yardEvery != yardEvery-1 {
		return wk.exec(ctx, phase, j)
	}
	rec := opRec{kind: opSubmit, yard: true}
	if err := d.yard.exec(d.seed, j, d.vols); err != nil {
		d.fail("%v", err)
		rec.failed = true
	}
	return rec
}

// exec runs operation j and returns its record (times unset).
func (wk *worker) exec(ctx context.Context, phase uint64, j int) opRec {
	d := wk.d
	o := d.w.genOp(d.seed, phase, j, d.vols, wk.reqs)
	wk.reqs = o.reqs[:0]
	rec := opRec{kind: o.kind}
	switch o.kind {
	case opSubmit:
		rec.items = 1
		if o.resend {
			if prev, ok := d.pickRecent(o.pick); ok {
				rec.cross = d.crossPair(prev.req.From, prev.req.To)
				d.submissions.Add(1)
				dec, err := d.t.client.Submit(ctx, prev.req)
				switch {
				case err != nil:
					d.fail("re-send %s: %v", prev.req.IdempotencyKey, err)
					rec.failed = true
				case !sameDecision(prev.dec, dec) && !d.wasCancelled(prev.dec.ID):
					// (A cancel by the other client may land between the
					// pick and the re-send; that is not a wrong answer.)
					d.fail("re-send %s answered %+v, original %+v", prev.req.IdempotencyKey, dec, prev.dec)
					rec.failed = true
				}
				return rec
			}
		}
		seq := d.submissions.Add(1)
		now := d.t.clock.advance(o.reqs[0].gap)
		req := o.reqs[0].wireRequest(now, idemKey(d.seed, phase, j, 0), d.w.durable)
		rec.cross = d.crossPair(req.From, req.To)
		dec, err := d.t.client.Submit(ctx, req)
		if err != nil {
			d.fail("submit %s: %v", req.IdempotencyKey, err)
			rec.failed = true
			return rec
		}
		if dec.Accepted {
			rec.accepted = 1
		}
		rec.failed = !wk.recordFresh(req, dec)
		d.mu.Lock()
		d.recent[d.nrec%len(d.recent)] = sentSubmit{seq: seq, req: req, dec: dec}
		d.nrec++
		d.mu.Unlock()
	case opBatch:
		rec.items = int32(len(o.reqs))
		d.submissions.Add(int64(len(o.reqs)))
		gap := 0.0
		for _, r := range o.reqs {
			gap += r.gap
		}
		now := d.t.clock.advance(gap)
		wk.wire = wk.wire[:0]
		for i, r := range o.reqs {
			wk.wire = append(wk.wire, r.wireRequest(now, idemKey(d.seed, phase, j, i), d.w.durable))
		}
		var items []server.BatchItemJSON
		var err error
		if d.w.batchBinary {
			items, err = d.t.client.SubmitBatchBinary(ctx, wk.wire)
		} else {
			items, err = d.t.client.SubmitBatch(ctx, wk.wire)
		}
		if err != nil {
			d.fail("batch %d: %v", j, err)
			rec.failed = true
			return rec
		}
		for i, it := range items {
			if it.Error != "" || it.Reservation == nil {
				d.fail("batch %d item %d: %s", j, i, it.Error)
				rec.failed = true
				continue
			}
			if it.Reservation.Accepted {
				rec.accepted++
			}
			if !wk.recordFresh(wk.wire[i], *it.Reservation) {
				rec.failed = true
			}
		}
	case opCancel:
		ref := wk.pickLive(o.pick)
		if ref == nil {
			// Nothing live to cancel yet: the cheapest honest stand-in is
			// a lookup, recorded as what it is.
			rec.kind = opLookup
			wk.lookup(ctx, &rec, o)
			return rec
		}
		ref.cancelled = true
		d.mu.Lock()
		d.cancelledIDs.set(ref.id)
		d.mu.Unlock()
		dec, err := d.t.client.Cancel(ctx, ref.id)
		switch {
		case err == nil:
			if dec.ID != ref.id || dec.State != string(server.StateCancelled) {
				d.fail("cancel %d answered %+v", ref.id, dec)
				rec.failed = true
			}
			if d.hist != nil {
				d.hist.Record(check.Op{Node: "entry", Kind: check.OpCancel, ID: ref.id})
			}
		case client.IsConflict(err):
			// τ passed between the pick and the daemon's clock read.
			d.mu.Lock()
			d.conflicts++
			d.mu.Unlock()
		default:
			d.fail("cancel %d: %v", ref.id, err)
			rec.failed = true
		}
	case opLookup:
		wk.lookup(ctx, &rec, o)
	}
	return rec
}

func (d *driver) wasCancelled(id int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancelledIDs.has(id)
}

// pickRecent chooses the fresh submit a re-send repeats: one whose key
// was issued within the last resendWindow submissions and whose
// reservation this run has not cancelled.
func (d *driver) pickRecent(pick uint64) (sentSubmit, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.nrec
	if n > len(d.recent) {
		n = len(d.recent)
	}
	floor := d.submissions.Load() - resendWindow
	// Entries are in issue order, newest last; count the eligible suffix.
	eligible := 0
	for eligible < n && d.recent[(d.nrec-1-eligible)%len(d.recent)].seq > floor {
		eligible++
	}
	for k := 0; k < eligible; k++ {
		e := d.recent[(d.nrec-1-(int(pick%uint64(eligible))+k)%eligible)%len(d.recent)]
		if !d.cancelledIDs.has(e.dec.ID) {
			return e, true
		}
	}
	return sentSubmit{}, false
}

// cancelMargin keeps cancel targets clear of their own expiry: a grant
// this close to τ (virtual seconds) is left to expire.
const cancelMargin = 5.0

// pickLive chooses one of the worker's own reservations that is still
// live on the virtual clock: the scan starts a seeded few entries behind
// the newest grant and walks towards older ones.
func (wk *worker) pickLive(pick uint64) *resRef {
	n := wk.nref
	if n > refRing {
		n = refRing
	}
	now := wk.d.t.clock.seconds()
	for k := int(pick % 16); k < n && k < 512; k++ {
		ref := &wk.refs[(wk.nref-1-k)%refRing]
		if !ref.cancelled && ref.tau > now+cancelMargin {
			return ref
		}
	}
	return nil
}

// lookup fetches one reservation. Half the lookups aim at an ID from
// early warm-up, long since evicted from the retention ring, where 404 is
// the correct answer; the rest at one of the worker's recent grants.
func (wk *worker) lookup(ctx context.Context, rec *opRec, o op) {
	d := wk.d
	var ref *resRef
	id := -1
	if o.old && len(d.old) > 0 {
		id = d.old[int(o.pick%uint64(len(d.old)))]
	} else if ref = wk.pickLive(o.pick); ref != nil {
		id = ref.id
	} else if len(d.old) > 0 {
		id = d.old[int(o.pick%uint64(len(d.old)))]
	} else {
		id = 0
	}
	dec, err := d.t.client.Get(ctx, id)
	switch {
	case err == nil:
		if dec.ID != id || !dec.Accepted {
			d.fail("lookup %d answered %+v", id, dec)
			rec.failed = true
		}
		if ref != nil && (dec.RateBps != ref.rate || dec.TauS != ref.tau) {
			d.fail("lookup %d answered rate %g tau %g, admission said %g %g", id, dec.RateBps, dec.TauS, ref.rate, ref.tau)
			rec.failed = true
		}
	case client.IsNotFound(err):
		d.mu.Lock()
		d.notFound++
		d.mu.Unlock()
		// A live same-shard grant must be found; hold-backed cross-shard
		// grants are not in the shard's reservation map by design.
		if ref != nil && !ref.cross && ref.tau > d.t.clock.seconds()+cancelMargin {
			d.fail("lookup %d: 404 for a live reservation (tau %g, now %g)", id, ref.tau, d.t.clock.seconds())
			rec.failed = true
		}
	default:
		d.fail("lookup %d: %v", id, err)
		rec.failed = true
	}
}

// closedLoop runs nClients goroutines for dur, each sending its next op
// when the previous reply arrived. Ops are numbered from one shared
// counter starting at first, so their content does not depend on which
// client sends them.
func (d *driver) closedLoop(phase uint64, nClients int, dur time.Duration, first, maxOps int) [][]opRec {
	var next atomic.Int64
	t0 := time.Now()
	deadline := t0.Add(dur)
	out := make([][]opRec, nClients)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		capacity := 1 << 16
		if maxOps > 0 {
			capacity = maxOps
		}
		wk := d.workerFor(c, capacity)
		wg.Add(1)
		go func(c int, wk *worker) {
			defer wg.Done()
			ctx := context.Background()
			for {
				start := time.Now()
				if start.After(deadline) {
					break
				}
				j := int(next.Add(1) - 1)
				if maxOps > 0 && j >= maxOps {
					break
				}
				j += first
				if d.tr != nil {
					d.tr.curOp.Store(int32(j))
				}
				rec := wk.send(ctx, phase, j)
				end := time.Now()
				if d.tr != nil {
					d.tr.add("client."+rec.kind.String(), "", start, end)
				}
				rec.start = start.Sub(t0).Nanoseconds()
				rec.due, rec.free = rec.start, rec.start
				rec.end = end.Sub(t0).Nanoseconds()
				wk.recs = append(wk.recs, rec)
				if d.afterOp != nil {
					d.afterOp()
				}
			}
			out[c] = wk.recs
		}(c, wk)
	}
	wg.Wait()
	return out
}

// workerFor returns client c's state. Workers persist across phases so
// the open loop cancels and looks up what the closed loop booked.
func (d *driver) workerFor(c int, capacity int) *worker {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.workers) <= c {
		d.workers = append(d.workers, d.newWorker(0))
	}
	wk := d.workers[c]
	wk.recs = make([]opRec, 0, capacity)
	return wk
}

// sleepUntil parks the calling goroutine until the wall-clock instant t.
// time.Sleep on an idle Go process wakes on the netpoller's millisecond
// timeout; nanosleep keeps the error to tens of microseconds, and the last
// stretch is spun so an op is sent at its due instant.
func sleepUntil(t time.Time) {
	const spin = 300 * time.Microsecond
	if rem := time.Until(t); rem > spin+100*time.Microsecond {
		ts := syscall.NsecToTimespec(int64(rem - spin))
		_ = syscall.Nanosleep(&ts, nil) // an early wake only lengthens the spin
	}
	for time.Now().Before(t) {
	}
}

// openLoop sends the scheduled ops, numbered from first, at their due
// instants over nClients connections. An op whose due time passed while
// every client was busy is sent as soon as one frees up, and its latency
// still counts from the instant it was due.
func (d *driver) openLoop(phase uint64, nClients int, first int, due []int64) [][]opRec {
	var next atomic.Int64
	t0 := time.Now().Add(2 * time.Millisecond)
	out := make([][]opRec, nClients)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wk := d.workerFor(c, len(due)/nClients*2+16)
		wg.Add(1)
		go func(c int, wk *worker) {
			defer wg.Done()
			ctx := context.Background()
			free := int64(0)
			for {
				j := int(next.Add(1) - 1)
				if j >= len(due) {
					break
				}
				sleepUntil(t0.Add(time.Duration(due[j])))
				start := time.Now()
				rec := wk.send(ctx, phase, first+j)
				end := time.Now()
				rec.due = due[j]
				rec.free = free
				rec.start = start.Sub(t0).Nanoseconds()
				rec.end = end.Sub(t0).Nanoseconds()
				free = rec.end
				wk.recs = append(wk.recs, rec)
			}
			out[c] = wk.recs
		}(c, wk)
	}
	wg.Wait()
	return out
}

// rusageCPU is the process's user+system CPU time so far.
func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
