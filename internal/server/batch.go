package server

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"gridbw/internal/admit"
	"gridbw/internal/alloc"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// The batched admission pipeline. One SubmitBatch call decides N
// submissions in three phases:
//
//  1. Under s.mu: clamp NotBefore to the advanced clock, run admit.Check
//     (a malformed submission is that item's error), resolve or seed the
//     idempotency cache, allocate IDs and settle the two refusals that
//     need no capacity lookup.
//  2. Without s.mu: sort the survivors by (ingress, egress) pair and take
//     the admission step for each — admit.At at its one instant,
//     max(NotBefore, now) — holding each pair's shard locks once per group
//     instead of once per submission. Disjoint pairs from other calls
//     proceed in parallel throughout this phase.
//  3. Under s.mu again: publish the accepted entries, schedule expiries,
//     audit the decision log and fill the idempotency slots.
//
// Capacity is claimed in phase 2 in pair order, not input order; two
// submissions of one batch competing for the same scarce window are
// decided in (ingress, egress, input) order.
//
// Every per-call structure — the item table, the pending/waiting lists,
// the pair transaction — lives in a pooled batchScratch, so the
// steady-state pipeline performs no heap allocation of its own: Submit
// runs allocation-free end to end.

// BatchResult is one submission's outcome within a batch: either a
// Decision or a per-item error (malformed submission, or ErrClosed when
// the server drained mid-batch).
type BatchResult struct {
	Decision Decision
	Err      error
	// Durability reports the sync-ack outcome for this decision — see the
	// wire.Durability* constants. A batch waits on one shared WAL frontier, so
	// every decision of a call carries the same outcome.
	Durability string
}

// batchItem carries one submission through the pipeline phases. Items live
// in the scratch table at their submission's index, so phase 3 publishes in
// input order by walking the table instead of re-sorting.
type batchItem struct {
	idx  int
	sub  Submission
	r    request.Request
	ent  *idemEntry // placeholder this call must fill, if keyed
	wait *idemEntry // existing slot to resolve instead of admitting

	// pending marks items that entered the phase-2 admission step.
	pending bool

	// Admission outcome (phase 2).
	g        request.Grant
	accepted bool
	reason   string
}

// batchScratch is the pooled working set of one submitMany call.
type batchScratch struct {
	subs1   [1]Submission // backing array for the single-submission path
	items   []batchItem   // one per submission, indexed by input position
	results []BatchResult // one per submission, indexed by input position
	pending []*batchItem  // survivors entering the admission step
	waiting []*batchItem  // idempotent hits resolved in phase 4
	decided []int         // input indices whose decision this call published
	tx      alloc.PairTx  // reusable pair transaction
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getScratch(n int) *batchScratch {
	sc := scratchPool.Get().(*batchScratch)
	if cap(sc.items) < n {
		sc.items = make([]batchItem, n)
	}
	sc.items = sc.items[:n]
	if cap(sc.results) < n {
		sc.results = make([]BatchResult, n)
	}
	sc.results = sc.results[:n]
	clear(sc.results)
	sc.pending = sc.pending[:0]
	sc.waiting = sc.waiting[:0]
	sc.decided = sc.decided[:0]
	return sc
}

// putScratch drops every reference the call planted (idempotency slots,
// keys, shard pointers) so pooling never extends their lifetime.
func putScratch(sc *batchScratch) {
	clear(sc.items)
	clear(sc.results)
	clear(sc.pending)
	clear(sc.waiting)
	sc.subs1[0] = Submission{}
	sc.tx = alloc.PairTx{}
	scratchPool.Put(sc)
}

// SubmitBatch decides every submission in one pass and reports one result
// per input, in input order. The only call-level errors are an empty or
// oversized batch and ErrClosed; per-submission failures come back in the
// matching BatchResult.
func (s *Server) SubmitBatch(subs []Submission) ([]BatchResult, error) {
	sc := getScratch(len(subs))
	err := s.submitMany(subs, sc)
	if err != nil {
		putScratch(sc)
		return nil, err
	}
	out := make([]BatchResult, len(subs))
	copy(out, sc.results)
	putScratch(sc)
	s.recordBatch(len(subs))
	return out, nil
}

// submitOne runs one submission through the batch pipeline and keeps the
// full BatchResult, durability outcome included — the single-request HTTP
// handler needs it on the wire, where the Decision-only Submit would
// discard it.
func (s *Server) submitOne(sub Submission) (BatchResult, error) {
	sc := getScratch(1)
	sc.subs1[0] = sub
	err := s.submitMany(sc.subs1[:1], sc)
	if err != nil {
		putScratch(sc)
		return BatchResult{}, err
	}
	res := sc.results[0]
	putScratch(sc)
	if res.Err != nil {
		return BatchResult{}, res.Err
	}
	return res, nil
}

// clampStart is max(notBefore, now): a request cannot start in the past.
// A notBefore of −Inf is kept as it is, for admit.Check to refuse like any
// other non-finite quantity instead of passing as "now".
func clampStart(notBefore, now units.Time) units.Time {
	if notBefore < now && !math.IsInf(float64(notBefore), -1) {
		return now
	}
	return notBefore
}

// byPair orders phase-2 survivors by (ingress, egress) so consecutive
// items share one shard-pair lock acquisition. Kept a named function so
// the sort call carries no closure.
func byPair(a, b *batchItem) int {
	if a.r.Ingress != b.r.Ingress {
		return int(a.r.Ingress) - int(b.r.Ingress)
	}
	return int(a.r.Egress) - int(b.r.Egress)
}

func (s *Server) submitMany(subs []Submission, sc *batchScratch) error {
	if len(subs) == 0 {
		return fmt.Errorf("server: empty batch")
	}
	if len(subs) > s.maxBatch {
		return fmt.Errorf("server: batch of %d exceeds limit %d", len(subs), s.maxBatch)
	}
	// Admission latency is measured on the real clock, not s.clock: it is
	// an observation of this process's decide pipeline, comparable with
	// what a load harness measures from outside, even when tests drive the
	// service clock manually.
	started := time.Now()
	results := sc.results

	// Phase 1: the global section — idempotency, IDs, domain checks.
	s.mu.Lock()
	if err := s.writableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.advanceLocked()
	now := s.sim.Now()
	// A poisoned WAL cannot persist anything this call decides. Refusing
	// here — before idempotency slots or IDs are claimed — means a NACKed
	// durable submission leaves no trace and can be retried verbatim
	// against a healthy node.
	walPoisoned := s.wal != nil && s.wal.Poisoned() != nil
	for i := range subs {
		sub := subs[i]
		it := &sc.items[i]
		*it = batchItem{idx: i, sub: sub}
		if err := s.validateSubmission(sub); err != nil {
			results[i].Err = err
			continue
		}
		r := request.Request{
			Ingress: topology.PointID(sub.From),
			Egress:  topology.PointID(sub.To),
			Start:   clampStart(sub.NotBefore, now),
			Finish:  sub.Deadline,
			Volume:  sub.Volume,
			MaxRate: sub.MaxRate,
		}
		checked := admit.Check(r)
		if checked.Cause == admit.Malformed {
			results[i].Err = fmt.Errorf("server: %w", checked.Err)
			continue
		}
		if walPoisoned && (s.syncNeed > 0 || sub.Durable) {
			results[i].Err = ErrDurabilityLost
			continue
		}
		if key := sub.IdempotencyKey; key != "" {
			if e, ok := s.idem[key]; ok {
				// A retry (or a concurrent duplicate still in flight):
				// never book again, answer from the original decision.
				s.stats.RecordIdempotentHit()
				it.wait = e
				sc.waiting = append(sc.waiting, it)
				continue
			}
			it.ent = &idemEntry{done: make(chan struct{})}
			s.remember(key, it.ent)
		}
		r.ID = s.nextID
		s.nextID++
		it.r = r
		if checked.Cause != admit.Admitted {
			// An empty window or a volume MaxRate cannot move in it is a
			// decision, not an API error, and needs no capacity lookup.
			d := s.rejectLocked(r, checked.Err.Error(), sub.IdempotencyKey)
			s.settleLocked(it, d, nil)
			results[i].Decision = d
			sc.decided = append(sc.decided, i)
			continue
		}
		it.pending = true
		sc.pending = append(sc.pending, it)
	}
	s.mu.Unlock()

	// Phase 2: admission steps under shard pair locks only. Sorting by
	// point pair lets consecutive items share one lock acquisition and
	// keeps the ingress-before-egress global order.
	if len(sc.pending) > 1 {
		slices.SortStableFunc(sc.pending, byPair)
	}
	tx, locked := &sc.tx, false
	for _, it := range sc.pending {
		if locked && !tx.Covers(it.r.Ingress, it.r.Egress) {
			tx.Unlock()
			locked = false
		}
		if !locked {
			s.ledger.LockPair(tx, it.r.Ingress, it.r.Egress)
			locked = true
		}
		s.admitTx(tx, it)
	}
	if locked {
		tx.Unlock()
	}

	// Phase 3: publish under the global section. Items sit in the scratch
	// table at their input position, so walking it publishes in input order
	// with no re-sort.
	durable := false
	for i := range subs {
		if subs[i].Durable {
			durable = true
			break
		}
	}
	s.mu.Lock()
	s.advanceLocked()
	for i := range sc.items {
		it := &sc.items[i]
		if !it.pending {
			continue
		}
		if s.closed {
			// The server drained between phases; an accepted grant must
			// not outlive a stopped expiry loop, so give it back.
			if it.accepted {
				s.ledger.Revoke(it.r, s.sim.Now())
			}
			s.settleLocked(it, Decision{}, ErrClosed)
			results[it.idx].Err = ErrClosed
			continue
		}
		var d Decision
		if it.accepted {
			d = s.acceptLocked(it.r, it.g, it.sub.IdempotencyKey)
		} else {
			d = s.rejectLocked(it.r, it.reason, it.sub.IdempotencyKey)
		}
		s.settleLocked(it, d, nil)
		results[it.idx].Decision = d
		sc.decided = append(sc.decided, it.idx)
	}
	// Synchronous-ack durability: the decisions just published were WAL'd
	// under s.mu, so the append frontier now covers every frame of this
	// call. If the mode (or a Durable flag) asks for follower acks, park
	// until enough follower cursors pass that frontier — outside s.mu, so
	// admissions keep flowing while this response waits on replication.
	var syncPos wal.Pos
	poisonedLate := false
	need := s.syncNeedFor(durable)
	decided := len(subs) - len(sc.waiting)
	if need > 0 && s.wal != nil && decided > 0 {
		if s.wal.Poisoned() != nil {
			// The WAL died between phase 1 and here: these decisions were
			// never persisted, so follower acks cannot vouch for them.
			// Waiting on the stale frontier would report "replicated" for
			// frames that do not exist — answer degraded instead.
			poisonedLate = true
		} else {
			syncPos = s.wal.End()
		}
	}
	s.mu.Unlock()

	degraded := poisonedLate
	if poisonedLate {
		for _, i := range sc.decided {
			results[i].Durability = wire.DurabilityDegraded
		}
	}
	if !syncPos.IsZero() {
		degraded = !s.acks.Wait(s.stop, syncPos, need, s.syncTimeout)
		// The wait's outcome is part of each answer, not just a global
		// counter: a caller that asked for replicated durability must be
		// able to see when its specific ack was not replicated in time.
		outcome := wire.DurabilityReplicated
		if degraded {
			outcome = wire.DurabilityDegraded
		}
		for _, i := range sc.decided {
			results[i].Durability = outcome
		}
	}

	// Every submission this call decided (domain rejections from phase 1
	// included, idempotent waiters excluded — their decision was timed by
	// the owning flight) shares the call's pipeline latency, sync-ack
	// parking included: admit latency is the client-visible decide time.
	elapsed := time.Since(started)
	s.mu.Lock()
	if degraded {
		// The acks never came inside the deadline: answer anyway (the
		// decision is locally durable) but flip the degraded signal — the
		// caller was promised replicated durability it did not get.
		s.stats.RecordSyncDegraded()
	}
	for i := 0; i < decided; i++ {
		s.stats.RecordAdmitLatency(elapsed)
	}
	s.mu.Unlock()

	// Phase 4: resolve idempotent hits. The owning submission may still be
	// in flight on another goroutine; wait for it without holding any lock.
	for _, it := range sc.waiting {
		results[it.idx] = s.resolveIdem(it.wait)
	}
	return nil
}

// admitTx takes the admission step for one checked request against its
// locked point pair. A request is decided at exactly one instant, its
// Start = max(NotBefore, now): a flexible one as Algorithm 2 decides an
// arrival, a booked-ahead one as a fixed rectangle at NotBefore. The start
// is never slid later in the window — a request rigid enough to need that
// (MinRate ≈ MaxRate) has a window at most Eps wider than its transfer, so
// there is nowhere to slide to. On success the grant is already committed
// to the ledger.
//
// Phase 1's now may have gone stale while the item waited for its pair
// locks: another call's expiry or cancel can have moved the pair's floor
// past it. The start is raised to the floor, the later now the pair has
// seen, so no grant is decided over a span the profiles have forgotten.
func (s *Server) admitTx(tx *alloc.PairTx, it *batchItem) {
	it.r.Start = max(it.r.Start, tx.Floor())
	g, no := admit.At(tx, s.pol, it.r, it.r.Start)
	switch no.Cause {
	case admit.Admitted:
		it.g, it.accepted = g, true
	case admit.Capacity:
		it.reason = "capacity saturated"
	default:
		it.reason = no.String()
	}
}

// settleLocked fills the item's idempotency slot, waking every retry
// blocked on it. Decisions stay cached; API errors are dropped from the
// cache so a corrected retry re-attempts instead of replaying the error.
func (s *Server) settleLocked(it *batchItem, d Decision, err error) {
	if it.ent == nil {
		return
	}
	it.ent.d, it.ent.err = d, err
	close(it.ent.done)
	if err != nil {
		if cur, ok := s.idem[it.sub.IdempotencyKey]; ok && cur == it.ent {
			delete(s.idem, it.sub.IdempotencyKey)
		}
	}
}

// resolveIdem waits for an idempotency slot to settle and re-derives the
// state of an accepted reservation, exactly like a fresh Lookup; one the
// registry no longer retains finished long ago.
func (s *Server) resolveIdem(e *idemEntry) BatchResult {
	<-e.done
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	if e.err != nil {
		return BatchResult{Err: e.err}
	}
	d := e.d
	if le, live := s.resv[d.ID]; live && d.Accepted {
		d = s.decisionLocked(le)
	} else if d.Accepted {
		d.State = StateExpired
	}
	return BatchResult{Decision: d}
}
