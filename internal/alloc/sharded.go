package alloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// Sharded is the capacity ledger: one Profile per access point of a
// network, each behind its own lock, booking a grant two-sided — on its
// ingress and its egress point over its assigned window, or on neither.
// The paper's equation (1) constrains each ingress and egress point
// independently, so a reservation only ever needs the two profiles it
// routes through — submissions through disjoint point pairs admit fully in
// parallel. Single-threaded callers (the planner, the exact solvers, the
// audits) pay one uncontended lock per call.
//
// The ledger keeps no registry of the grants it booked: whoever booked a
// grant holds it, and hands it back to Revoke.
//
// Deadlock freedom comes from a global lock order: every ingress shard
// ranks before every egress shard, and shards of the same direction rank
// by point index. All multi-shard operations (Pair, Reserve, Revoke,
// CheckInvariant) acquire in that order.
//
// Each shard also counts its lock traffic — total acquisitions and how
// many of them had to block — so the control plane can expose per-point
// contention without a profiler.
type Sharded struct {
	net *topology.Network
	in  []*shard
	eg  []*shard
}

// shard is one access point's profile behind its own lock.
type shard struct {
	mu        sync.Mutex
	locks     atomic.Uint64
	contended atomic.Uint64
	p         *Profile
}

// lock acquires the shard, counting whether it had to wait.
func (sh *shard) lock() {
	if !sh.mu.TryLock() {
		sh.contended.Add(1)
		sh.mu.Lock()
	}
	sh.locks.Add(1)
}

func (sh *shard) unlock() { sh.mu.Unlock() }

// NewSharded returns an empty ledger over net.
func NewSharded(net *topology.Network) *Sharded {
	l := &Sharded{net: net}
	for i := 0; i < net.NumIngress(); i++ {
		l.in = append(l.in, &shard{p: NewProfile(net.Bin(topology.PointID(i)))})
	}
	for e := 0; e < net.NumEgress(); e++ {
		l.eg = append(l.eg, &shard{p: NewProfile(net.Bout(topology.PointID(e)))})
	}
	return l
}

// Network reports the network the ledger tracks.
func (l *Sharded) Network() *topology.Network { return l.net }

// PairTx holds the (ingress, egress) shard pair of one route locked, so a
// caller can take a whole admission step — or a batch's worth of them for
// one route — against a consistent view of both profiles.
// Callers must Unlock exactly once, and must not retain the profiles past
// it.
type PairTx struct {
	l        *Sharded
	ingress  topology.PointID
	egress   topology.PointID
	in, eg   *shard
	unlocked bool
}

// Pair locks the route's ingress and egress shards in the global order and
// returns the transaction handle.
func (l *Sharded) Pair(in, eg topology.PointID) *PairTx {
	tx := new(PairTx)
	l.LockPair(tx, in, eg)
	return tx
}

// LockPair re-initializes tx onto the (in, eg) route and locks both shards
// in the global order. It lets hot paths reuse a caller-owned PairTx
// instead of allocating one per admission; tx must not be currently locked.
func (l *Sharded) LockPair(tx *PairTx, in, eg topology.PointID) {
	*tx = PairTx{l: l, ingress: in, egress: eg, in: l.in[int(in)], eg: l.eg[int(eg)]}
	tx.in.lock()
	tx.eg.lock()
}

// Ingress returns the locked ingress profile.
func (tx *PairTx) Ingress() *Profile { return tx.in.p }

// Egress returns the locked egress profile.
func (tx *PairTx) Egress() *Profile { return tx.eg.p }

// Floor reports the later of the two profiles' floors: the pair has
// forgotten everything before it (Profile.TrimBefore).
func (tx *PairTx) Floor() units.Time { return max(tx.in.p.floor, tx.eg.p.floor) }

// Covers reports whether the transaction holds the route of (in, eg).
func (tx *PairTx) Covers(in, eg topology.PointID) bool {
	return tx.ingress == in && tx.egress == eg
}

// Reserve commits grant g for request r on both locked points, atomically:
// both sides are checked before either is booked. The request must route
// through the transaction's pair.
func (tx *PairTx) Reserve(r request.Request, g request.Grant) error {
	if !tx.Covers(r.Ingress, r.Egress) {
		return fmt.Errorf("alloc: request %d routes %d->%d outside locked pair %d->%d",
			r.ID, r.Ingress, r.Egress, tx.ingress, tx.egress)
	}
	if g.Request != r.ID {
		return fmt.Errorf("alloc: grant for request %d applied to request %d", g.Request, r.ID)
	}
	if e := tx.in.p.refusal(g.Sigma, g.Tau, g.Bandwidth); e != nil {
		e.Dir, e.Point = topology.Ingress, r.Ingress
		return e
	}
	if e := tx.eg.p.refusal(g.Sigma, g.Tau, g.Bandwidth); e != nil {
		e.Dir, e.Point = topology.Egress, r.Egress
		return e
	}
	tx.in.p.add(g.Sigma, g.Tau, g.Bandwidth)
	tx.eg.p.add(g.Sigma, g.Tau, g.Bandwidth)
	return nil
}

// Unlock releases the pair. Unlocking twice panics, like sync.Mutex.
func (tx *PairTx) Unlock() {
	if tx.unlocked {
		panic("alloc: PairTx unlocked twice")
	}
	tx.unlocked = true
	tx.eg.unlock()
	tx.in.unlock()
}

// PointTx holds a single access point's shard locked, for one-sided
// operations: the cross-shard hold protocol books capacity on only the
// half of a route this ledger owns, so it needs one profile, not a pair.
// Callers must Unlock exactly once. A PointTx never nests inside a PairTx
// (single-shard lock, so the global order is trivially respected).
type PointTx struct {
	sh       *shard
	dir      topology.Direction
	point    topology.PointID
	unlocked bool
}

// LockPoint locks the shard of one point in the given direction.
func (l *Sharded) LockPoint(dir topology.Direction, p topology.PointID) *PointTx {
	tx := new(PointTx)
	l.LockPointTx(tx, dir, p)
	return tx
}

// LockPointTx re-initializes tx onto the point of the given direction and
// locks its shard, as LockPair does for a PairTx: a hot path reuses a
// caller-owned PointTx instead of allocating one per step. tx must not be
// currently locked.
func (l *Sharded) LockPointTx(tx *PointTx, dir topology.Direction, p topology.PointID) {
	*tx = PointTx{sh: l.point(dir, p), dir: dir, point: p}
	tx.sh.lock()
}

// point is the shard of one point in the given direction.
func (l *Sharded) point(dir topology.Direction, p topology.PointID) *shard {
	if dir == topology.Ingress {
		return l.in[int(p)]
	}
	return l.eg[int(p)]
}

// Reserve books g on the locked point only, or changes nothing. The hold
// that asked for it remembers the grant and gives it back through
// HoldRelease.
func (tx *PointTx) Reserve(_ request.Request, g request.Grant) error {
	return tx.sh.book(tx.dir, tx.point, g.Sigma, g.Tau, g.Bandwidth)
}

// book books bw over [sigma, tau] on the locked shard of point p, or
// refuses naming p and changes nothing.
func (sh *shard) book(dir topology.Direction, p topology.PointID, sigma, tau units.Time, bw units.Bandwidth) error {
	if e := sh.p.refusal(sigma, tau, bw); e != nil {
		e.Dir, e.Point = dir, p
		return e
	}
	sh.p.add(sigma, tau, bw)
	return nil
}

// Profile returns the locked point's profile.
func (tx *PointTx) Profile() *Profile { return tx.sh.p }

// Unlock releases the point. Unlocking twice panics, like sync.Mutex.
func (tx *PointTx) Unlock() {
	if tx.unlocked {
		panic("alloc: PointTx unlocked twice")
	}
	tx.unlocked = true
	tx.sh.unlock()
}

// HoldReserve books bw over [sigma, tau] on one side's point only — the
// tentative half of a cross-shard admission. It fails without booking if
// the span does not fit.
func (l *Sharded) HoldReserve(dir topology.Direction, p topology.PointID, sigma, tau units.Time, bw units.Bandwidth) error {
	sh := l.point(dir, p)
	sh.lock()
	defer sh.unlock()
	return sh.book(dir, p, sigma, tau, bw)
}

// Floor reports the floor of one point's profile: it has forgotten
// everything before it (Profile.TrimBefore).
func (l *Sharded) Floor(dir topology.Direction, p topology.PointID) units.Time {
	sh := l.point(dir, p)
	sh.lock()
	defer sh.unlock()
	return sh.p.floor
}

// HoldRelease returns a one-sided booking made by HoldReserve at instant
// at, as Revoke does: the point forgets its past before at, and the booking
// is released from max(sigma, at) on. An at of −∞ forgets nothing.
func (l *Sharded) HoldRelease(dir topology.Direction, p topology.PointID, sigma, tau units.Time, bw units.Bandwidth, at units.Time) {
	sh := l.point(dir, p)
	sh.lock()
	defer sh.unlock()
	giveBack(sh.p, sigma, tau, bw, at)
}

// giveBack trims p to at and releases bw over what is left of [sigma, tau).
// at must be an instant the caller's clock has reached: τ for a booking that
// ran its course, whose span then lies wholly behind the floor and is
// released without walking a segment; now for one given back early.
func giveBack(p *Profile, sigma, tau units.Time, bw units.Bandwidth, at units.Time) {
	p.TrimBefore(at)
	if from := max(sigma, at); from < tau {
		p.Release(from, tau, bw)
	}
}

// Reserve commits grant g for request r, taking the pair locks itself.
func (l *Sharded) Reserve(r request.Request, g request.Grant) error {
	tx := l.Pair(r.Ingress, r.Egress)
	defer tx.Unlock()
	return tx.Reserve(r, g)
}

// Revoke gives back grant g, which the caller booked for r, on both of r's
// points at instant at, which the caller's clock has reached — τ for an
// expiry, now for a cancel, never a future σ: both points forget their
// past before at (Profile.TrimBefore) and the grant is released over
// [max(σ, at), τ), so a booked-ahead grant cancelled before σ is released
// whole. A caller with no clock passes −∞: nothing is forgotten and the
// whole grant is released. Revoking a grant that is not booked is the
// caller's bug; it panics once a point's usage would go negative.
func (l *Sharded) Revoke(r request.Request, g request.Grant, at units.Time) {
	in, eg := l.in[int(r.Ingress)], l.eg[int(r.Egress)]
	in.lock()
	eg.lock()
	giveBack(in.p, g.Sigma, g.Tau, g.Bandwidth, at)
	giveBack(eg.p, g.Sigma, g.Tau, g.Bandwidth, at)
	eg.unlock()
	in.unlock()
}

// Breakpoints reports the breakpoints stored over every point's profile:
// what the ledger's memory grows with. Shards are read one at a time.
func (l *Sharded) Breakpoints() int {
	n := 0
	for _, side := range [...][]*shard{l.in, l.eg} {
		for _, sh := range side {
			sh.lock()
			n += sh.p.Breakpoints()
			sh.unlock()
		}
	}
	return n
}

// UsedAt reports the allocated bandwidth of one point at instant t.
func (l *Sharded) UsedAt(dir topology.Direction, p topology.PointID, t units.Time) units.Bandwidth {
	sh := l.point(dir, p)
	sh.lock()
	defer sh.unlock()
	return sh.p.UsedAt(t)
}

// UsageAt reports the allocated bandwidth of every point at instant t.
// Shards are sampled one at a time, so the view is per-point exact but not
// a global cut — fine for occupancy dashboards, not for invariant proofs
// (those go through CheckInvariant, which locks everything).
func (l *Sharded) UsageAt(t units.Time) (in, eg []units.Bandwidth) {
	in, eg = make([]units.Bandwidth, len(l.in)), make([]units.Bandwidth, len(l.eg))
	for i := range in {
		in[i] = l.UsedAt(topology.Ingress, topology.PointID(i), t)
	}
	for e := range eg {
		eg[e] = l.UsedAt(topology.Egress, topology.PointID(e), t)
	}
	return in, eg
}

// CheckInvariant audits equation (1) for every point under a full stop:
// all shards are locked in the global order, so the audit sees one
// consistent cross-shard state.
func (l *Sharded) CheckInvariant() error {
	for _, sh := range l.in {
		sh.lock()
	}
	for _, sh := range l.eg {
		sh.lock()
	}
	defer func() {
		for i := len(l.eg) - 1; i >= 0; i-- {
			l.eg[i].unlock()
		}
		for i := len(l.in) - 1; i >= 0; i-- {
			l.in[i].unlock()
		}
	}()
	for i, sh := range l.in {
		if err := sh.p.CheckInvariant(); err != nil {
			return fmt.Errorf("ingress %d: %w", i, err)
		}
	}
	for e, sh := range l.eg {
		if err := sh.p.CheckInvariant(); err != nil {
			return fmt.Errorf("egress %d: %w", e, err)
		}
	}
	return nil
}

// ShardStat is one shard's lock-traffic counters.
type ShardStat struct {
	Dir       topology.Direction
	Point     topology.PointID
	Locks     uint64 // total acquisitions
	Contended uint64 // acquisitions that had to block
}

// Stats reports per-shard lock traffic, ingress points first. Counters are
// read atomically without stopping the shards.
func (l *Sharded) Stats() []ShardStat {
	out := make([]ShardStat, 0, len(l.in)+len(l.eg))
	for i, sh := range l.in {
		out = append(out, ShardStat{
			Dir: topology.Ingress, Point: topology.PointID(i),
			Locks: sh.locks.Load(), Contended: sh.contended.Load(),
		})
	}
	for e, sh := range l.eg {
		out = append(out, ShardStat{
			Dir: topology.Egress, Point: topology.PointID(e),
			Locks: sh.locks.Load(), Contended: sh.contended.Load(),
		})
	}
	return out
}
