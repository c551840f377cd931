package state

// One owner's side of the cross-shard RESERVE/CONFIRM/ABORT protocol (the
// daemon's holds.go lists it). A RESERVE carries the side's own decision
// (decide), and step is the one interpreter of internal/hold's Result.

import (
	"fmt"
	"math"
	"time"

	"gridbw/internal/admit"
	"gridbw/internal/des"
	"gridbw/internal/hold"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

const (
	// defaultHoldTTL bounds an unconfirmed hold's life when the caller
	// does not say; maxHoldTTL caps what a caller may ask for, so a buggy
	// router cannot park capacity for hours.
	defaultHoldTTL = 5 * time.Second
	maxHoldTTL     = 60 * time.Second
)

// holdEvents names the WAL event of each hold message; replay reads it
// backwards.
var holdEvents = [...]string{
	hold.Reserve: trace.EventHoldReserve, hold.Confirm: trace.EventHoldConfirm,
	hold.Abort: trace.EventHoldAbort, hold.Lapse: trace.EventHoldExpire, hold.Release: trace.EventHoldRelease,
}

// HoldReserve steps one RESERVE at now. An error is the request's fault and
// files nothing.
func (m *Machine) HoldReserve(now units.Time, req wire.HoldReserveJSON) (hold.Result, error) {
	m.reserving = reserving{now: now, req: req}
	defer func() { m.reserving = reserving{} }()
	return m.step(now, hold.Msg{Kind: hold.Reserve, Key: req.Hold, Decide: m.decideReserving}, true)
}

// reserving is the live RESERVE being stepped: decideReserving, the step's
// Decide, reads it, so that a RESERVE allocates no closure of its own.
type reserving struct {
	now units.Time
	req wire.HoldReserveJSON
}

// HoldStep steps one CONFIRM or ABORT at now.
func (m *Machine) HoldStep(now units.Time, msg hold.Msg) hold.Result {
	res, _ := m.step(now, msg, true) // only a RESERVE decides, and only a decision fails
	return res
}

// HoldKey returns the key of the hold filed under the bytes of b, as the
// table filed it.
func (m *Machine) HoldKey(b []byte) (string, bool) { return m.holds.Key(b) }

// HoldKeyOf returns the key of the hold that allocated request id.
func (m *Machine) HoldKeyOf(id request.ID) (string, bool) { return m.holds.KeyOf(id) }

// HoldsBooked reports how many holds book capacity, by state.
func (m *Machine) HoldsBooked() (held, confirmed int) { return m.holds.Booked() }

// HoldRows copies the hold table: every hold in key order, then the resolved
// ones in eviction order.
func (m *Machine) HoldRows() (all, retired []hold.Entry) {
	for _, e := range m.holds.All() {
		all = append(all, *e)
	}
	for _, e := range m.holds.Retired() {
		retired = append(retired, *e)
	}
	return all, retired
}

// step delivers msg for the live calls, their timers and replay alike: the
// table takes the transition, step arms the timer the result names and, live,
// logs the transition the result marks; a replayed one is already logged.
func (m *Machine) step(now units.Time, msg hold.Msg, live bool) (hold.Result, error) {
	res, err := m.holds.Step(msg)
	if err != nil {
		return res, err
	}
	if res.Arm != 0 {
		m.armHold(res.Entry, res.Arm)
	}
	if live && res.Log {
		m.Log(holdEvent(now, holdEvents[msg.Kind], res.Entry))
	}
	return res, nil
}

// armHold arms e's timer that delivers k — the TTL lapse or the release at
// τ — through the live step.
func (m *Machine) armHold(e *hold.Entry, k hold.Kind) {
	t := m.holdTimer()
	t.msg = hold.Msg{Kind: k, Key: e.Key}
	if m.Arm(e.Due(k), t.fire) == (des.Handle{}) {
		m.putTimer(t) // nothing was scheduled: a follower arms nothing
	}
}

// holdTimer is one armed timer of a hold: it delivers msg through the live
// step when it fires. Hold timers are never cancelled, so each one that is
// scheduled fires once and then goes back on the machine's free list, with
// its callback bound when it was made: once the list is warm, arming a
// timer allocates nothing.
type holdTimer struct {
	msg  hold.Msg
	fire des.Event
}

// holdTimer takes a timer off the free list, or makes one.
func (m *Machine) holdTimer() *holdTimer {
	if n := len(m.timers); n > 0 {
		t := m.timers[n-1]
		m.timers = m.timers[:n-1]
		return t
	}
	t := new(holdTimer)
	t.fire = func(sim *des.Simulator) {
		msg := t.msg
		m.putTimer(t)
		m.step(sim.Now(), msg, true)
	}
	return t
}

// putTimer returns a timer that fired, or was never scheduled, to the free
// list.
func (m *Machine) putTimer(t *holdTimer) {
	t.msg = hold.Msg{}
	m.timers = append(m.timers, t)
}

// decide is this side's step of a RESERVE for a key the table does not know:
// the ingress proposes and books, the egress checks and books. A refusal
// books nothing but is filed and logged, reason and all.
func (m *Machine) decide(now units.Time, req wire.HoldReserveJSON) (hold.Entry, error) {
	if req.Hold == "" {
		return hold.Entry{}, fmt.Errorf("server: reserve without hold key")
	}
	if err := wire.CheckKey("server: hold key", req.Hold); err != nil {
		return hold.Entry{}, err
	}
	if !finite(req.TTLS) {
		return hold.Entry{}, fmt.Errorf("server: non-finite hold TTL")
	}
	// Clamped in seconds: a float out of Duration's range converts to
	// whatever the platform makes of it.
	ttl := time.Duration(min(max(req.TTLS, 0), maxHoldTTL.Seconds()) * float64(time.Second))
	if ttl <= 0 {
		ttl = defaultHoldTTL
	}
	h := hold.Entry{
		Side: req.Side, Peer: req.PeerPoint, ID: -1,
		Volume: units.Volume(req.VolumeBytes), MaxRate: units.Bandwidth(req.MaxRateBps),
		ExpireAt: now + units.Time(ttl.Seconds()),
	}
	var err error
	switch req.Side {
	case trace.HoldSideIngress:
		err = m.propose(&h, req, now)
	case trace.HoldSideEgress:
		err = m.check(&h, req, now)
	default:
		err = fmt.Errorf("server: unknown hold side %q (want %q or %q)",
			req.Side, trace.HoldSideIngress, trace.HoldSideEgress)
	}
	return h, err
}

// propose is the ingress side of a RESERVE: the daemon's admission step at
// the same one instant, max(NotBefore, now), booked against the ingress
// profile only (the egress owner checks the proposal). It fills h's point,
// request ID and grant, or h.Reason with why it refused.
func (m *Machine) propose(h *hold.Entry, req wire.HoldReserveJSON, now units.Time) error {
	net := m.ledger.Network()
	if req.Point < 0 || req.Point >= net.NumIngress() {
		return fmt.Errorf("server: ingress %d out of range [0,%d)", req.Point, net.NumIngress())
	}
	start := units.Time(req.NotBeforeS)
	deadline := units.Time(req.DeadlineS)
	if req.RelTimes {
		start += now
		deadline += now
	}
	r := request.Request{
		ID: m.NextID, Ingress: topology.PointID(req.Point), Egress: topology.PointID(req.PeerPoint),
		Start: ClampStart(start, now), Finish: deadline,
		Volume: h.Volume, MaxRate: h.MaxRate,
	}
	checked := admit.Check(r)
	if checked.Cause == admit.Malformed {
		return fmt.Errorf("server: %w", checked.Err)
	}
	m.NextID++
	h.Point, h.ID = r.Ingress, r.ID
	if checked.Cause != admit.Admitted {
		h.Reason = checked.Err.Error()
		return nil
	}
	tx := &m.ptx
	m.ledger.LockPointTx(tx, topology.Ingress, h.Point)
	defer tx.Unlock()
	g, no := admit.At(tx, m.pol, r, r.Start)
	switch no.Cause {
	case admit.Admitted:
		h.BW, h.Sigma, h.Tau = g.Bandwidth, g.Sigma, g.Tau
	case admit.Capacity:
		h.Reason = "ingress capacity saturated"
	default:
		h.Reason = no.String()
	}
	return nil
}

// check is the egress side of a RESERVE: it books the proposed grant on the
// egress profile, or fills h.Reason if it does not fit.
func (m *Machine) check(h *hold.Entry, req wire.HoldReserveJSON, now units.Time) error {
	if n := m.ledger.Network().NumEgress(); req.Point < 0 || req.Point >= n {
		return fmt.Errorf("server: egress %d out of range [0,%d)", req.Point, n)
	}
	sigma, tau := units.Time(req.SigmaS), units.Time(req.TauS)
	if req.RelTimes {
		// In-flight delay may have pushed the proposed start into this
		// shard's past; book from now so the window stays live.
		sigma, tau = ClampStart(sigma+now, now), tau+now
	}
	// The proposal is numbers off a frame that no admit.Check has seen on
	// this shard, and every one of them is booked or logged.
	if !finite(float64(sigma), float64(tau), req.RateBps, req.VolumeBytes, req.MaxRateBps) || req.RateBps <= 0 || tau <= sigma {
		return fmt.Errorf("server: degenerate proposed grant")
	}
	h.Point = topology.PointID(req.Point)
	h.BW, h.Sigma, h.Tau = units.Bandwidth(req.RateBps), sigma, tau
	switch {
	case tau <= m.ledger.Floor(topology.Egress, h.Point):
		// An absolute window the profile has already forgotten: nothing
		// there can be checked, so nothing there is booked.
		h.Reason = "proposed window already past"
	case m.ledger.HoldReserve(topology.Egress, h.Point, sigma, tau, h.BW) != nil:
		h.Reason = "egress capacity saturated"
	}
	return nil
}

// bookHold range-checks a recorded hold and books it: a replayed RESERVE's
// decision. A recorded refusal books nothing and is filed refused.
func (m *Machine) bookHold(h hold.Entry) (hold.Entry, error) {
	net, points := m.ledger.Network(), 0
	switch h.Side {
	case trace.HoldSideIngress:
		points = net.NumIngress()
	case trace.HoldSideEgress:
		points = net.NumEgress()
	default:
		return h, fmt.Errorf("hold %q has unknown side %q", h.Key, h.Side)
	}
	if h.Point < 0 || int(h.Point) >= points {
		return h, fmt.Errorf("hold %q on unknown %s point %d", h.Key, h.Dir(), h.Point)
	}
	if h.Reason != "" {
		return h, nil
	}
	if !(h.BW > 0 && h.Tau > h.Sigma) {
		return h, fmt.Errorf("hold %q has degenerate grant", h.Key)
	}
	if err := m.ledger.HoldReserve(h.Dir(), h.Point, h.Sigma, h.Tau, h.BW); err != nil {
		return h, fmt.Errorf("hold %q: %w", h.Key, err)
	}
	return h, nil
}

// holdEvent is the one encoder of a hold record. The local point rides in
// Ingress or Egress by side and the peer's point in the other, so the log
// alone names the pair.
func holdEvent(at units.Time, kind string, e *hold.Entry) trace.Event {
	ev := trace.Event{
		At: float64(at), Kind: kind, Request: int(e.ID),
		Ingress: -1, Egress: -1,
		RateBps: float64(e.BW), SigmaS: float64(e.Sigma), TauS: float64(e.Tau),
		VolumeB: float64(e.Volume), MaxRateBps: float64(e.MaxRate),
		Hold: e.Key, Side: e.Side, Reason: e.Reason,
	}
	if e.Side == trace.HoldSideIngress {
		ev.Ingress, ev.Egress = int(e.Point), e.Peer
	} else if e.Side == trace.HoldSideEgress {
		ev.Ingress, ev.Egress = e.Peer, int(e.Point)
	}
	if kind == trace.EventHoldReserve {
		ev.ExpireS = float64(e.ExpireAt)
	}
	return ev
}

// holdFromEvent decodes the hold a RESERVE record files: holdEvent read
// backwards.
func holdFromEvent(ev *trace.Event) hold.Entry {
	h := hold.Entry{
		Key: ev.Hold, Side: ev.Side, Point: topology.PointID(ev.Ingress), Peer: ev.Egress,
		ID:    request.ID(ev.Request),
		BW:    units.Bandwidth(ev.RateBps),
		Sigma: units.Time(ev.SigmaS), Tau: units.Time(ev.TauS),
		Volume: units.Volume(ev.VolumeB), MaxRate: units.Bandwidth(ev.MaxRateBps),
		ExpireAt: units.Time(ev.ExpireS), Reason: ev.Reason,
	}
	if ev.Side == trace.HoldSideEgress {
		h.Point, h.Peer = topology.PointID(ev.Egress), ev.Ingress
	}
	return h
}

// ClampStart is max(notBefore, now): a request cannot start in the past.
// A notBefore of −Inf is kept as it is, for admit.Check to refuse like any
// other non-finite quantity instead of passing as "now".
func ClampStart(notBefore, now units.Time) units.Time {
	if notBefore < now && !math.IsInf(float64(notBefore), -1) {
		return now
	}
	return notBefore
}

// maxInstantS bounds the instant a record may be stamped at: half of the
// seconds a time.Duration holds (~4.6e9 s), so the service clock anchored at
// any instant below it runs on for another ~146 years before its offset
// overflows.
const maxInstantS = float64(math.MaxInt64/2) / float64(time.Second)

// checkInstant refuses an instant the service clock cannot run from: one
// that is not finite, or at or past maxInstantS.
func checkInstant(at float64) error {
	if !finite(at) || at >= maxInstantS {
		return fmt.Errorf("instant %g s is not in the service clock's range (finite, below %g s)", at, maxInstantS)
	}
	return nil
}

// finite reports whether none of xs is NaN or ±Inf: frames carry raw float
// bits, and a comparison like x <= 0 lets a NaN through.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
