package alloc

import (
	"fmt"

	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// Ledger holds one Profile per access point of a network and reserves
// request grants two-sided: a grant consumes bandwidth at its ingress and
// its egress point over its assigned window, or at neither.
type Ledger struct {
	net     *topology.Network
	ingress []*Profile
	egress  []*Profile
	granted map[request.ID]request.Grant
}

// NewLedger returns an empty ledger over net.
func NewLedger(net *topology.Network) *Ledger {
	l := &Ledger{net: net, granted: make(map[request.ID]request.Grant)}
	for i := 0; i < net.NumIngress(); i++ {
		l.ingress = append(l.ingress, NewProfile(net.Bin(topology.PointID(i))))
	}
	for e := 0; e < net.NumEgress(); e++ {
		l.egress = append(l.egress, NewProfile(net.Bout(topology.PointID(e))))
	}
	return l
}

// Network reports the network the ledger tracks.
func (l *Ledger) Network() *topology.Network { return l.net }

// Ingress returns the profile of ingress point i.
func (l *Ledger) Ingress(i topology.PointID) *Profile { return l.ingress[int(i)] }

// Egress returns the profile of egress point e.
func (l *Ledger) Egress(e topology.PointID) *Profile { return l.egress[int(e)] }

// Fits reports whether granting request r with grant g fits both points.
func (l *Ledger) Fits(r request.Request, g request.Grant) bool {
	return l.ingress[int(r.Ingress)].Fits(g.Sigma, g.Tau, g.Bandwidth) &&
		l.egress[int(r.Egress)].Fits(g.Sigma, g.Tau, g.Bandwidth)
}

// Reserve commits grant g for request r on both points, atomically.
func (l *Ledger) Reserve(r request.Request, g request.Grant) error {
	if g.Request != r.ID {
		return fmt.Errorf("alloc: grant for request %d applied to request %d", g.Request, r.ID)
	}
	if _, dup := l.granted[r.ID]; dup {
		return fmt.Errorf("alloc: request %d already granted", r.ID)
	}
	if err := reservePair(l.ingress[int(r.Ingress)], l.egress[int(r.Egress)], r, g); err != nil {
		return err
	}
	l.granted[r.ID] = g
	return nil
}

// Revoke undoes a previously reserved grant (both sides). Revoking an
// unknown request is a scheduler bug and panics.
func (l *Ledger) Revoke(r request.Request) request.Grant {
	g, ok := l.granted[r.ID]
	if !ok {
		panic(fmt.Sprintf("alloc: revoking ungranted request %d", r.ID))
	}
	l.ingress[int(r.Ingress)].Release(g.Sigma, g.Tau, g.Bandwidth)
	l.egress[int(r.Egress)].Release(g.Sigma, g.Tau, g.Bandwidth)
	delete(l.granted, r.ID)
	return g
}

// Grant reports the grant recorded for request id, if any.
func (l *Ledger) Grant(id request.ID) (request.Grant, bool) {
	g, ok := l.granted[id]
	return g, ok
}

// NumGranted reports the number of committed grants.
func (l *Ledger) NumGranted() int { return len(l.granted) }

// Grants returns all committed grants keyed by request ID (a copy).
func (l *Ledger) Grants() map[request.ID]request.Grant {
	out := make(map[request.ID]request.Grant, len(l.granted))
	for id, g := range l.granted {
		out[id] = g
	}
	return out
}

// UsageAt reports the allocated bandwidth of every ingress and egress
// point at instant t — the live-occupancy view a control plane exposes on
// its status endpoint.
func (l *Ledger) UsageAt(t units.Time) (in, eg []units.Bandwidth) {
	in = make([]units.Bandwidth, len(l.ingress))
	for i, p := range l.ingress {
		in[i] = p.UsedAt(t)
	}
	eg = make([]units.Bandwidth, len(l.egress))
	for e, p := range l.egress {
		eg[e] = p.UsedAt(t)
	}
	return in, eg
}

// CheckInvariant audits every profile.
func (l *Ledger) CheckInvariant() error {
	for i, p := range l.ingress {
		if err := p.CheckInvariant(); err != nil {
			return fmt.Errorf("ingress %d: %w", i, err)
		}
	}
	for e, p := range l.egress {
		if err := p.CheckInvariant(); err != nil {
			return fmt.Errorf("egress %d: %w", e, err)
		}
	}
	return nil
}

// reservePair books g on the ingress and egress profiles of r's route, or
// on neither: both sides are checked before either changes.
func reservePair(in, eg *Profile, r request.Request, g request.Grant) error {
	if e := in.refusal(g.Sigma, g.Tau, g.Bandwidth); e != nil {
		e.Dir, e.Point = topology.Ingress, r.Ingress
		return e
	}
	if e := eg.refusal(g.Sigma, g.Tau, g.Bandwidth); e != nil {
		e.Dir, e.Point = topology.Egress, r.Egress
		return e
	}
	in.add(g.Sigma, g.Tau, g.Bandwidth)
	eg.add(g.Sigma, g.Tau, g.Bandwidth)
	return nil
}
