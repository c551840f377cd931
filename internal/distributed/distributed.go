// Package distributed implements the paper's last future-work item (§7):
// "fully distributed allocation algorithms to study the scalability of
// the approach."
//
// In the centralized §5 schedulers a single scheduler sees exact
// occupancy of every access point. Here each ingress router decides
// *locally*: it knows its own point exactly, but each egress only by the
// reading of the last sync tick. Every point is one alloc.Profile of one
// alloc.Sharded, the daemon's store. Admission is two-phase: the ingress
// decides with admit.At, the daemon's admission step, against a booker
// that checks the egress reading and then holds the ingress share, and
// sends a RESERVE carrying the grant to the egress router, which books it
// with the HoldReserve call of the daemon's egress check and either holds
// + acknowledges (ACK) or refuses (NACK, the ingress rolls back — a
// *conflict*). A hold books from the instant its side decides it until τ,
// so no booking starts after the current instant and the profile's peak
// over the rest of a grant is the usage now. Conflicts are the price of
// stale state: the experiment of Table T8 sweeps the sync period and
// measures accept rate and conflict rate against the centralized
// scheduler on the same workload.
//
// Unlike the first cut, the protocol no longer assumes a perfect
// network. Messages travel through an optional faults.Injector (drop,
// jitter, duplication, router crash windows), and the handshake is
// failure-aware:
//
//   - A tentative ingress hold carries a reservation timeout: if neither
//     ACK nor NACK arrives within Config.ReserveTimeout the hold rolls
//     back (verdict Timeout) instead of leaking capacity forever, and the
//     ingress retransmits ABORT until the egress confirms release.
//   - Unanswered RESERVE/CONFIRM/ABORT messages are retransmitted with a
//     bounded attempt budget, so every handshake resolves with
//     probability 1 under any drop rate below total loss.
//   - Both sides keep their holds in an internal/hold table and change them
//     only through hold.Step, the step the daemon's cross-shard holds run,
//     which picks every transition and makes each idempotent under
//     duplicated or reordered messages: a request is held at most once per
//     side no matter how many RESERVE copies arrive, and an ABORT that beats
//     its RESERVE leaves a tombstone the late copy finds. The simulator only
//     interprets the result: it sends ACK or NACK, arms the ingress's
//     reservation timeout for the TTL a held hold waits on, and observes
//     what moved. The egress arms no TTL (the ingress's timeout and its
//     ABORT loop resolve it), and no hold arms τ: a committed hold's booking
//     ends at τ, so a check at τ sees the capacity back.
//
// Report.Faults exposes conflict/timeout/leak counters plus the channel
// statistics, and Config.Observer lets an invariant harness mirror every
// occupancy change.
package distributed

import (
	"fmt"
	"sort"
	"strconv"

	"gridbw/internal/admit"
	"gridbw/internal/alloc"
	"gridbw/internal/des"
	"gridbw/internal/faults"
	"gridbw/internal/hold"
	"gridbw/internal/metrics"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/sched"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

// Config tunes the distributed control plane.
type Config struct {
	// SyncPeriod is how often the egress readings every ingress decides
	// with are refreshed. Zero means read-through (always fresh at
	// decision time) — message races remain the only conflict source.
	SyncPeriod units.Time
	// MsgDelay is the one-way ingress↔egress message latency.
	MsgDelay units.Time
	// Policy assigns bandwidth to admitted requests; required.
	Policy policy.Policy
	// ReserveTimeout bounds the two-phase handshake: a tentative ingress
	// hold rolls back (verdict Timeout) if no ACK or NACK arrived this
	// long after the RESERVE was first sent. Zero disables the deadline,
	// which is only sound on a perfect network; Validate therefore
	// requires it whenever Faults is set.
	ReserveTimeout units.Time
	// RetryInterval spaces retransmissions of unanswered protocol
	// messages when fault injection is active; zero defaults to
	// ReserveTimeout/4.
	RetryInterval units.Time
	// Faults, when non-nil, perturbs every protocol message with the
	// injector's drop/jitter/duplication/crash schedule.
	Faults *faults.Injector
	// Observer, when non-nil, receives every occupancy change at every
	// router — the hook the fault-injection invariant harness uses to
	// audit capacity independently of the protocol's own bookkeeping.
	Observer func(HoldEvent)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Policy == nil {
		return fmt.Errorf("distributed: config needs a policy")
	}
	if c.SyncPeriod < 0 || c.MsgDelay < 0 {
		return fmt.Errorf("distributed: negative periods")
	}
	if c.ReserveTimeout < 0 || c.RetryInterval < 0 {
		return fmt.Errorf("distributed: negative timeout or retry interval")
	}
	if c.Faults != nil && c.ReserveTimeout <= 0 {
		return fmt.Errorf("distributed: fault injection needs a positive ReserveTimeout (lost messages would leak tentative holds forever)")
	}
	return nil
}

// HoldKind classifies a HoldEvent.
type HoldKind int

const (
	// HoldAcquire: a tentative hold took bw at the point.
	HoldAcquire HoldKind = iota
	// HoldRelease: a tentative hold was rolled back (NACK, timeout, or
	// abort); the bw returned at Event.At.
	HoldRelease
	// HoldCommit: the hold became a committed grant that will release at
	// Event.Until.
	HoldCommit
)

// HoldEvent is one occupancy change at a router, in simulated-time order.
type HoldEvent struct {
	At        units.Time
	Kind      HoldKind
	Dir       topology.Direction
	Point     topology.PointID
	Request   request.ID
	Bandwidth units.Bandwidth
	// Until is the scheduled release instant; valid when Kind == HoldCommit.
	Until units.Time
}

// Verdict classifies a request's fate.
type Verdict int

const (
	// Accepted requests committed on both routers.
	Accepted Verdict = iota
	// LocalReject: the ingress refused using its local view.
	LocalReject
	// Conflict: locally admitted, but the egress's authoritative check
	// failed — stale cache or message race.
	Conflict
	// PolicyReject: no admissible rate (deadline unreachable by decision
	// time).
	PolicyReject
	// Timeout: locally admitted, but the handshake did not resolve within
	// ReserveTimeout; the tentative hold rolled back.
	Timeout
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Accepted:
		return "accepted"
	case LocalReject:
		return "local-reject"
	case Conflict:
		return "conflict"
	case PolicyReject:
		return "policy-reject"
	case Timeout:
		return "timeout"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Record traces one request through the protocol.
type Record struct {
	Request request.ID
	Verdict Verdict
	Grant   request.Grant // valid when Accepted
}

// Report is the outcome of a distributed run.
type Report struct {
	Records []Record // request-ID order
	Outcome *sched.Outcome
	// Faults aggregates channel perturbations and protocol-level fault
	// outcomes (conflicts, timeouts, leaks); zero-valued on a perfect
	// network except Conflicts.
	Faults metrics.FaultCounters
}

// Rate reports the fraction of requests with the given verdict.
func (r *Report) Rate(v Verdict) float64 {
	if len(r.Records) == 0 {
		return 0
	}
	n := 0
	for _, rec := range r.Records {
		if rec.Verdict == v {
			n++
		}
	}
	return float64(n) / float64(len(r.Records))
}

// maxAttempts caps per-message retransmission so a fully severed channel
// (Drop == 1) still quiesces; with any drop rate tests use, the budget is
// never exhausted.
const maxAttempts = 64

// ingPending is one in-flight request on its ingress: its grant, its hold,
// its reservation timeout, and whether the egress acknowledged its
// CONFIRM and its ABORT.
type ingPending struct {
	r                        request.Request
	g                        request.Grant
	hold                     *hold.Entry
	timeout                  des.Handle
	confirmAcked, abortAcked bool
}

// runner wires the protocol state through one simulation.
type runner struct {
	cfg Config
	net *topology.Network
	sim *des.Simulator
	inj *faults.Injector
	rto units.Time

	// ledger books every point, and both hold tables give capacity back to
	// it; in and eg are the hold tables of the ingress and the egress side,
	// keyed by request ID.
	ledger *alloc.Sharded
	in, eg *hold.Table
	// view is every egress point's usage at the last sync tick, which every
	// ingress reads when SyncPeriod is set.
	view []units.Bandwidth

	out      *sched.Outcome
	records  []Record
	counters metrics.FaultCounters
}

// Run simulates the distributed protocol over the request set.
func Run(net *topology.Network, reqs *request.Set, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rto := cfg.RetryInterval
	if rto <= 0 {
		rto = cfg.ReserveTimeout / 4
	}
	ru := &runner{
		cfg:    cfg,
		net:    net,
		sim:    des.New(),
		inj:    cfg.Faults,
		rto:    rto,
		ledger: alloc.NewSharded(net),
		view:   make([]units.Bandwidth, net.NumEgress()),
	}
	// A request resolves at most once per side, so this retention never
	// evicts: every tombstone outlives every message that could need it.
	ru.in, ru.eg = hold.NewTable(ru.ledger, reqs.Len()), hold.NewTable(ru.ledger, reqs.Len())
	ru.out = sched.NewOutcome(fmt.Sprintf("distributed(sync=%v)/%s", cfg.SyncPeriod, cfg.Policy.Name()), net, reqs)
	ru.records = make([]Record, reqs.Len())

	// Arrival events, in deterministic order.
	order := reqs.All()
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].Start != order[b].Start {
			return order[a].Start < order[b].Start
		}
		if am, bm := order[a].MinRate(), order[b].MinRate(); am != bm {
			return am < bm
		}
		return order[a].ID < order[b].ID
	})
	// Sync ticks refresh the view from the ledger. Only an arrival reads
	// it, so they stop at the last one.
	if cfg.SyncPeriod > 0 && len(order) > 0 {
		ru.sim.Ticker(0, cfg.SyncPeriod, order[len(order)-1].Start, func(s *des.Simulator, _ int) bool {
			for e := range ru.view {
				ru.view[e] = ru.ledger.UsedAt(topology.Egress, topology.PointID(e), s.Now())
			}
			return true
		})
	}
	for _, r := range order {
		r := r
		ru.records[int(r.ID)] = Record{Request: r.ID}
		ru.sim.At(r.Start, func(*des.Simulator) { ru.arrival(r) })
	}
	ru.sim.Run()

	// A confirmed hold books up to its τ and no further, so a hold still
	// held at quiescence escaped both its timeout and the abort protocol:
	// a leak.
	for _, t := range []*hold.Table{ru.in, ru.eg} {
		held, _ := t.Booked()
		ru.counters.Leaks += uint64(held)
	}
	if ru.inj != nil {
		ru.counters.Merge(ru.inj.Stats())
	}
	return &Report{Records: ru.records, Outcome: ru.out, Faults: ru.counters}, nil
}

// booker is the ingress side's store for admit.At: it checks the egress
// reading the ingress has — the ledger's own when SyncPeriod is zero, else
// the last tick's — and then holds the ingress point from now until τ.
type booker struct{ *runner }

func (b booker) Reserve(r request.Request, g request.Grant) error {
	now, e := b.sim.Now(), b.view[r.Egress]
	if b.cfg.SyncPeriod == 0 {
		e = b.ledger.UsedAt(topology.Egress, r.Egress, now)
	}
	if c := b.net.Bout(r.Egress); !units.FitsWithin(e, g.Bandwidth, c) {
		return &alloc.CapacityError{T0: now, T1: g.Tau, Want: g.Bandwidth, Used: e, Cap: c, Dir: topology.Egress, Point: r.Egress}
	}
	return b.ledger.HoldReserve(topology.Ingress, r.Ingress, now, g.Tau, g.Bandwidth)
}

func (ru *runner) observe(kind HoldKind, dir topology.Direction, p topology.PointID, id request.ID, bw units.Bandwidth, until units.Time) {
	if ru.cfg.Observer == nil {
		return
	}
	ru.cfg.Observer(HoldEvent{
		At: ru.sim.Now(), Kind: kind, Dir: dir, Point: p,
		Request: id, Bandwidth: bw, Until: until,
	})
}

func inKey(i topology.PointID) string { return fmt.Sprintf("in/%d", int(i)) }
func egKey(e topology.PointID) string { return fmt.Sprintf("eg/%d", int(e)) }

// send delivers one protocol message and, under fault injection, sends it
// again every retry interval until answered reports true or the attempt
// budget is spent.
func (ru *runner) send(to string, answered func() bool, fn func()) {
	var attempt func(n int)
	attempt = func(n int) {
		ru.deliver(to, fn)
		if ru.inj != nil && ru.rto > 0 && n < maxAttempts {
			ru.sim.After(ru.rto, func(*des.Simulator) {
				if !answered() {
					ru.counters.Retransmits++
					attempt(n + 1)
				}
			})
		}
	}
	attempt(1)
}

// deliver sends one copy of a message through the (possibly faulty)
// channel; fn runs once per surviving copy at its arrival instant, unless
// the destination router is down then.
func (ru *runner) deliver(to string, fn func()) {
	now := ru.sim.Now()
	if ru.inj == nil {
		ru.sim.At(now+ru.cfg.MsgDelay, func(*des.Simulator) { fn() })
		return
	}
	for _, d := range ru.inj.Deliveries(ru.cfg.MsgDelay) {
		ru.sim.At(now+d, func(s *des.Simulator) {
			if ru.inj.Arrive(to, s.Now()) {
				fn()
			}
		})
	}
}

// arrival decides the request with the admission step and, on success,
// opens the two-phase handshake with the tentative ingress hold it booked.
func (ru *runner) arrival(r request.Request) {
	rec := &ru.records[int(r.ID)]
	// The transfer can only start once the two-phase handshake completes.
	g, no := admit.At(booker{ru}, ru.cfg.Policy, r, ru.sim.Now()+2*ru.cfg.MsgDelay)
	switch no.Cause {
	case admit.Admitted:
	case admit.Capacity:
		rec.Verdict = LocalReject
		ru.out.Reject(r.ID, "local view: insufficient capacity")
		return
	default:
		rec.Verdict = PolicyReject
		ru.out.Reject(r.ID, no.String())
		return
	}
	// RESERVE travels to the egress; it is answered once the ingress hold
	// waits on its timeout no more.
	res, _ := ru.in.Step(hold.Msg{Kind: hold.Reserve, Key: strconv.Itoa(int(r.ID)), Decide: func() (hold.Entry, error) {
		return hold.Entry{
			Side: trace.HoldSideIngress, Point: r.Ingress, Peer: int(r.Egress), ID: r.ID,
			BW: g.Bandwidth, Sigma: ru.sim.Now(), Tau: g.Tau,
		}, nil
	}})
	ru.observe(HoldAcquire, topology.Ingress, r.Ingress, r.ID, g.Bandwidth, 0)
	p := &ingPending{r: r, g: g, hold: res.Entry}
	if res.Arm == hold.Lapse && ru.cfg.ReserveTimeout > 0 {
		p.timeout = ru.sim.After(ru.cfg.ReserveTimeout, func(*des.Simulator) {
			ru.reserveTimeout(p)
		})
	}
	ru.send(egKey(r.Egress), func() bool { return p.hold.Waits() != hold.Lapse }, func() { ru.egressOnReserve(p) })
}

// egressOnReserve runs the authoritative check exactly once per request,
// booking from now until τ as the daemon's egress side (state.Machine)
// books a proposed grant — a RESERVE landing at or after τ has nothing left
// to book and is refused; duplicate RESERVE copies re-send the recorded
// answer without touching the ledger (idempotent commit).
func (ru *runner) egressOnReserve(p *ingPending) {
	res, _ := ru.eg.Step(hold.Msg{Kind: hold.Reserve, Key: p.hold.Key, Decide: func() (hold.Entry, error) {
		h := hold.Entry{
			Side: trace.HoldSideEgress, Point: p.r.Egress, Peer: int(p.r.Ingress), ID: -1,
			BW: p.g.Bandwidth, Sigma: ru.sim.Now(), Tau: p.g.Tau,
		}
		if !(h.Sigma < h.Tau && ru.ledger.HoldReserve(topology.Egress, h.Point, h.Sigma, h.Tau, h.BW) == nil) {
			h.Reason = "egress has no room for the grant before τ"
		}
		return h, nil
	}})
	ack := res.Answer == hold.Granted
	if ack && res.Log {
		ru.observe(HoldAcquire, topology.Egress, p.r.Egress, p.r.ID, p.g.Bandwidth, 0)
	}
	ru.deliver(inKey(p.r.Ingress), func() { ru.ingressOnAnswer(p, ack) })
}

// ingressOnAnswer takes the egress's answer to the RESERVE: an ACK commits
// the ingress hold and sends CONFIRM, a NACK rolls it back. A duplicate
// answer, or one racing a timeout that already rolled back, moves nothing —
// the abort loop is converging the egress side.
func (ru *runner) ingressOnAnswer(p *ingPending, ack bool) {
	kind := hold.Confirm
	if !ack {
		kind = hold.Abort
	}
	if res, _ := ru.in.Step(hold.Msg{Kind: kind, Key: p.hold.Key}); !res.Log {
		return
	}
	ru.sim.Cancel(p.timeout)
	if !ack {
		ru.counters.Conflicts++
		ru.rollbackIngress(p, Conflict, "conflict: egress authoritative check failed")
		return
	}
	ru.observe(HoldCommit, topology.Ingress, p.r.Ingress, p.r.ID, p.g.Bandwidth, p.g.Tau)
	ru.records[int(p.r.ID)] = Record{Request: p.r.ID, Verdict: Accepted, Grant: p.g}
	ru.out.Accept(p.g)
	ru.send(egKey(p.r.Egress), func() bool { return p.confirmAcked }, func() { ru.egressOnConfirm(p) })
}

// reserveTimeout fires when neither ACK nor NACK resolved the hold in
// time: the ingress rolls back instead of leaking, then converges the
// egress with ABORT.
func (ru *runner) reserveTimeout(p *ingPending) {
	if res, _ := ru.in.Step(hold.Msg{Kind: hold.Lapse, Key: p.hold.Key}); !res.Log {
		return
	}
	ru.counters.Timeouts++
	ru.rollbackIngress(p, Timeout, "timeout: handshake unresolved within reserve deadline")
	ru.sendAbort(p)
}

// rollbackIngress records why the ingress hold rolled back.
func (ru *runner) rollbackIngress(p *ingPending, v Verdict, reason string) {
	ru.observe(HoldRelease, topology.Ingress, p.r.Ingress, p.r.ID, p.g.Bandwidth, 0)
	ru.records[int(p.r.ID)].Verdict = v
	ru.out.Reject(p.r.ID, reason)
}

func (ru *runner) egressOnConfirm(p *ingPending) {
	if res, _ := ru.eg.Step(hold.Msg{Kind: hold.Confirm, Key: p.hold.Key}); res.Log {
		ru.observe(HoldCommit, topology.Egress, p.r.Egress, p.r.ID, res.Entry.BW, res.Entry.Tau)
	}
	ru.deliver(inKey(p.r.Ingress), func() { p.confirmAcked = true })
}

func (ru *runner) sendAbort(p *ingPending) {
	ru.send(egKey(p.r.Egress), func() bool { return p.abortAcked }, func() { ru.egressOnAbort(p) })
}

// egressOnAbort rolls the egress hold back; an ABORT that beat its RESERVE
// leaves a tombstone, so a late copy NACKs. A committed egress hold never
// sees one (only a committed ingress confirms, and it never aborts).
// Always acknowledge so the abort loop stops.
func (ru *runner) egressOnAbort(p *ingPending) {
	if res, _ := ru.eg.Step(hold.Msg{Kind: hold.Abort, Key: p.hold.Key}); res.Released {
		ru.observe(HoldRelease, topology.Egress, p.r.Egress, p.r.ID, res.Entry.BW, 0)
	}
	ru.deliver(inKey(p.r.Ingress), func() { p.abortAcked = true })
}
