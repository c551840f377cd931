package state

import (
	"fmt"
	"slices"

	"gridbw/internal/hold"
	"gridbw/internal/metrics"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

// Apply replays one record, shipped or recovered, onto m: the only code that
// turns a record into state. It takes the booking and transition the live
// path ends in — through the ledger's capacity check, so a log that
// over-commits a point is refused — files the key a decision carried and
// arms the timer the new state waits on; it logs nothing. It refuses a record
// stamped at an instant the service clock cannot run from (checkInstant). It
// reports false for a record that changed nothing and must not be recorded
// again (a re-delivery, or a retirement before this replica's horizon), so
// replay converges from any cursor.
func (m *Machine) Apply(ev trace.Event) (bool, error) { return m.apply(ev, false) }

// apply is Apply; snapshot, set by Install alone, also takes an accept
// without a route: a decision a snapshot keeps for its idempotency key.
func (m *Machine) apply(ev trace.Event, snapshot bool) (bool, error) {
	if err := checkInstant(ev.At); err != nil {
		return false, fmt.Errorf("server: apply: %s: %w", ev.Kind, err)
	}
	switch ev.Kind {
	case trace.EventAccept:
		r, g := grantFromEvent(ev)
		if e, ok := m.resv[r.ID]; ok {
			if e.req == r && e.grant == g {
				return false, nil // duplicate delivery of an applied accept
			}
			return false, fmt.Errorf("server: apply: reservation %d already exists with a different grant", r.ID)
		}
		if snapshot && ev.Ingress < 0 {
			if ev.Key == "" {
				return false, fmt.Errorf("server: apply: reservation %d has neither a route nor a key", r.ID)
			}
			if err := r.Validate(); err != nil {
				return false, fmt.Errorf("server: apply: %w", err)
			}
		} else {
			e, err := m.restore(r, g)
			if err != nil {
				return false, fmt.Errorf("server: apply: %w", err)
			}
			m.armExpiry(e)
		}
		// The state a re-send answers is derived when it comes (Resolve).
		m.fileKey(ev.Key, Decision{ID: r.ID, Accepted: true, Rate: g.Bandwidth, Sigma: g.Sigma, Tau: g.Tau})
	case trace.EventReject:
		m.Stats.RecordReject()
		m.fileKey(ev.Key, Decision{ID: request.ID(ev.Request), State: Rejected, Reason: ev.Reason})
	case trace.EventCancel, trace.EventExpire:
		e, ok := m.resv[request.ID(ev.Request)]
		if !ok || e.state != Active {
			return false, nil // duplicate, or history before this replica's horizon
		}
		to := Expired
		if ev.Kind == trace.EventCancel {
			to = Cancelled
		}
		m.finish(e, to, units.Time(ev.At))
	case trace.EventHoldReserve, trace.EventHoldConfirm, trace.EventHoldAbort, trace.EventHoldExpire, trace.EventHoldRelease:
		if fresh, err := m.applyHold(&ev); err != nil || !fresh {
			return false, err
		}
	case trace.EventRestore, trace.EventPanic, trace.EventPromote:
		// Markers carry no reservation state.
	default:
		return false, fmt.Errorf("server: apply: unknown event kind %q", ev.Kind)
	}
	if ev.Request >= int(m.NextID) {
		m.NextID = request.ID(ev.Request + 1)
	}
	return true, nil
}

// applyHold replays one hold record through the step. A RESERVE's Decide
// captures only the hold it books, so the record itself stays on its
// caller's stack.
func (m *Machine) applyHold(ev *trace.Event) (bool, error) {
	msg := hold.Msg{Kind: hold.Kind(slices.Index(holdEvents[:], ev.Kind)), Key: ev.Hold, Reason: ev.Reason}
	if msg.Kind == hold.Reserve {
		h := holdFromEvent(ev)
		msg.Decide = func() (hold.Entry, error) { return m.bookHold(h) }
	}
	res, err := m.step(units.Time(ev.At), msg, false)
	if err != nil {
		return false, fmt.Errorf("server: apply: %w", err)
	}
	if msg.Kind == hold.Reserve && !res.Log {
		return false, nil // duplicate delivery
	}
	return true, nil
}

// Install rebuilds a snapshot's state on m, a fresh machine, through the
// replay function. It adds the checks only a snapshot needs: a now the
// service clock cannot run from, an event ID not below nextID, an event not
// stamped now, a non-finite quantity, a point whose profile forgot past now
// (a give-back at a τ still ahead), and a state that fails the audit. The
// counters and the ID allocator become the snapshot's own.
func (m *Machine) Install(events []trace.Event, now units.Time, nextID request.ID, counters metrics.Online) error {
	if err := checkInstant(float64(now)); err != nil {
		return fmt.Errorf("now_s: %w", err)
	}
	for i, ev := range events {
		var err error
		switch {
		case ev.Request >= int(nextID) || ev.Kind == trace.EventAccept && ev.Request < 0:
			err = fmt.Errorf("request %d not in [0, next_id %d)", ev.Request, nextID)
		case !finite(ev.At, ev.RateBps, ev.SigmaS, ev.TauS, ev.VolumeB, ev.MaxRateBps, ev.ExpireS):
			err = fmt.Errorf("non-finite quantity")
		case ev.At != float64(now):
			err = fmt.Errorf("stamped %g, not now_s %g", ev.At, float64(now))
		default:
			_, err = m.apply(ev, true)
		}
		if err != nil {
			return fmt.Errorf("event %d (%s): %w", i, ev.Kind, err)
		}
	}
	net := m.ledger.Network()
	for dir, n := range []int{net.NumIngress(), net.NumEgress()} {
		for p := range n {
			d := topology.Direction(dir)
			if floor := m.ledger.Floor(d, topology.PointID(p)); floor > now {
				return fmt.Errorf("%s point %d gave capacity back at %g, past now_s %g",
					d, p, float64(floor), float64(now))
			}
		}
	}
	if err := m.Verify(); err != nil {
		return err
	}
	m.Stats, m.NextID = counters, nextID
	return nil
}

// Events lists, stamped now, the records Install replays into m's state,
// in an order that books every record feasibly. First what books nothing any
// more: every idempotency key in FIFO order on the decision it answers with
// (a reject, or an accept without a route), finished reservations in finish
// order, resolved holds in retirement order. Then the live reservations in
// ID order and the live holds in key order.
func (m *Machine) Events(now units.Time) []trace.Event {
	var events []trace.Event
	resv := func(kind string, r request.Request, g request.Grant, reason, key string) {
		events = append(events, resvEvent(now, kind, r, g, reason, key))
	}
	holds := func(e *hold.Entry, kinds ...string) {
		for _, kind := range kinds {
			events = append(events, holdEvent(now, kind, e))
		}
	}

	// Replay files the keys in the order the donor evicts them: each filed
	// key at the queue entry that filed its slot.
	for i := range m.idemOrder.len() {
		f := m.idemOrder.at(i)
		sl := f.sl
		if m.idem[f.key] != sl || !sl.settled() || sl.err != nil {
			continue // filed again since, still in flight, or failed
		}
		key, d := f.key, sl.d
		unrouted := request.Request{ID: d.ID, Ingress: -1, Egress: -1}
		if d.Accepted {
			resv(trace.EventAccept, unrouted, request.Grant{Bandwidth: d.Rate, Sigma: d.Sigma, Tau: d.Tau}, "", key)
		} else {
			resv(trace.EventReject, unrouted, request.Grant{}, d.Reason, key)
		}
	}
	for i := range m.finished.len() {
		e := m.finished.at(i)
		end := trace.EventExpire
		if e.state == Cancelled {
			end = trace.EventCancel
		}
		resv(trace.EventAccept, e.req, e.grant, "", "")
		resv(end, e.req, e.grant, "", "")
	}
	// Each resolved hold is retired again by the messages that retired it.
	for _, e := range m.holds.Retired() {
		switch {
		case e.Booked:
			// A key filed again after its first record was evicted: live.
		case e.Side == "":
			holds(e, trace.EventHoldAbort) // an ABORT that beat its RESERVE
		case e.Reason != "":
			holds(e, trace.EventHoldReserve) // a refused RESERVE
		case e.State == hold.Confirmed:
			holds(e, trace.EventHoldReserve, trace.EventHoldConfirm, trace.EventHoldRelease)
		default:
			holds(e, trace.EventHoldReserve, trace.EventHoldAbort)
		}
	}
	for _, r := range m.Live(now) {
		resv(trace.EventAccept, r.Req, r.Grant, "", "")
	}
	for _, e := range m.holds.All() {
		if e.Booked && e.State == hold.Confirmed {
			holds(e, trace.EventHoldReserve, trace.EventHoldConfirm)
		} else if e.Booked {
			holds(e, trace.EventHoldReserve)
		}
	}
	return events
}

// resvEvent is the one encoder of a reservation record.
func resvEvent(at units.Time, kind string, r request.Request, g request.Grant, reason, key string) trace.Event {
	return trace.Event{
		At: float64(at), Kind: kind, Request: int(r.ID),
		Ingress: int(r.Ingress), Egress: int(r.Egress),
		RateBps: float64(g.Bandwidth), SigmaS: float64(g.Sigma), TauS: float64(g.Tau),
		VolumeB: float64(r.Volume), MaxRateBps: float64(r.MaxRate),
		Reason: reason, Key: key,
	}
}

// grantFromEvent decodes an accept record, re-deriving the submission echo
// a record may omit (the daemon's grants satisfy vol = bw·(τ−σ) exactly).
func grantFromEvent(ev trace.Event) (request.Request, request.Grant) {
	id := request.ID(ev.Request)
	g := request.Grant{
		Request:   id,
		Bandwidth: units.Bandwidth(ev.RateBps),
		Sigma:     units.Time(ev.SigmaS),
		Tau:       units.Time(ev.TauS),
	}
	vol := units.Volume(ev.VolumeB)
	maxRate := units.Bandwidth(ev.MaxRateBps)
	if vol <= 0 {
		vol = g.Bandwidth.For(g.Tau - g.Sigma)
		maxRate = g.Bandwidth
	}
	return request.Request{
		ID:      id,
		Ingress: topology.PointID(ev.Ingress), Egress: topology.PointID(ev.Egress),
		Start: g.Sigma, Finish: g.Tau,
		Volume: vol, MaxRate: maxRate,
	}, g
}
