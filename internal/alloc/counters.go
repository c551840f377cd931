package alloc

import (
	"container/heap"
	"fmt"

	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// Counters is the instantaneous-occupancy view used by the paper's on-line
// heuristics (Algorithms 2 and 3): ali(i) and ale(e), the bandwidth
// currently allocated at each ingress and egress point. It is the
// degenerate, O(1) form of Profile — sufficient on-line because occupancy
// only decreases between admissions (releases), so a feasibility check at
// admission time covers the whole constant-rate transfer.
type Counters struct {
	net *topology.Network
	ali []units.Bandwidth
	ale []units.Bandwidth
	// ends holds what Reserve booked, earliest τ first, for AdvanceTo.
	ends endHeap
}

// end is one booked transfer's completion: what to give back, and when.
type end struct {
	tau    units.Time
	bw     units.Bandwidth
	in, eg topology.PointID
}

type endHeap []end

func (h endHeap) Len() int           { return len(h) }
func (h endHeap) Less(i, j int) bool { return h[i].tau < h[j].tau }
func (h endHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)        { *h = append(*h, x.(end)) }
func (h *endHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// NewCounters returns zeroed counters for net.
func NewCounters(net *topology.Network) *Counters {
	return &Counters{
		net: net,
		ali: make([]units.Bandwidth, net.NumIngress()),
		ale: make([]units.Bandwidth, net.NumEgress()),
	}
}

// Ali reports the bandwidth currently allocated at ingress i.
func (c *Counters) Ali(i topology.PointID) units.Bandwidth { return c.ali[int(i)] }

// Ale reports the bandwidth currently allocated at egress e.
func (c *Counters) Ale(e topology.PointID) units.Bandwidth { return c.ale[int(e)] }

// Fits reports whether adding bw at ingress i and egress e keeps both
// within capacity.
func (c *Counters) Fits(i, e topology.PointID, bw units.Bandwidth) bool {
	return units.FitsWithin(c.ali[int(i)], bw, c.net.Bin(i)) &&
		units.FitsWithin(c.ale[int(e)], bw, c.net.Bout(e))
}

// Acquire adds bw at both points. It returns an error (changing nothing)
// if either side would exceed its capacity.
func (c *Counters) Acquire(i, e topology.PointID, bw units.Bandwidth) error {
	if bw < 0 {
		panic(fmt.Sprintf("alloc: negative acquire %v", bw))
	}
	if !c.Fits(i, e, bw) {
		return fmt.Errorf("alloc: acquiring %v at (%d,%d) exceeds capacity (ali=%v/%v, ale=%v/%v)",
			bw, i, e, c.ali[int(i)], c.net.Bin(i), c.ale[int(e)], c.net.Bout(e))
	}
	c.ali[int(i)] += bw
	c.ale[int(e)] += bw
	return nil
}

// Reserve acquires g's bandwidth on r's route and remembers to give it
// back at τ: the on-line heuristics book a transfer for its whole life in
// one step. It makes Counters an admit.Booker.
func (c *Counters) Reserve(r request.Request, g request.Grant) error {
	if err := c.Acquire(r.Ingress, r.Egress, g.Bandwidth); err != nil {
		return err
	}
	heap.Push(&c.ends, end{tau: g.Tau, bw: g.Bandwidth, in: r.Ingress, eg: r.Egress})
	return nil
}

// AdvanceTo releases every transfer Reserve booked whose τ is at or before
// now, earliest first. Algorithm 2 reclaims at t = τ before it admits the
// arrivals of the same t, so callers advance first and decide second.
func (c *Counters) AdvanceTo(now units.Time) {
	for len(c.ends) > 0 && c.ends[0].tau <= now {
		e := heap.Pop(&c.ends).(end)
		c.ReleasePair(e.in, e.eg, e.bw)
	}
}

// ReleasePair subtracts bw at both points; the inverse of Acquire.
func (c *Counters) ReleasePair(i, e topology.PointID, bw units.Bandwidth) {
	if bw < 0 {
		panic(fmt.Sprintf("alloc: negative release %v", bw))
	}
	c.ali[int(i)] = clampRelease(c.ali[int(i)], bw, c.net.Bin(i))
	c.ale[int(e)] = clampRelease(c.ale[int(e)], bw, c.net.Bout(e))
}

func clampRelease(used, bw, capacity units.Bandwidth) units.Bandwidth {
	u := used - bw
	if u < 0 {
		if u < -units.Bandwidth(units.Eps)*max(capacity, 1) {
			panic(fmt.Sprintf("alloc: release drives counter negative (%v)", u))
		}
		u = 0
	}
	return u
}

// UtilizationIn reports ali(i)/Bin(i), or 0 for a zero-capacity point.
func (c *Counters) UtilizationIn(i topology.PointID) float64 {
	b := c.net.Bin(i)
	if b == 0 {
		return 0
	}
	return float64(c.ali[int(i)]) / float64(b)
}

// UtilizationOut reports ale(e)/Bout(e), or 0 for a zero-capacity point.
func (c *Counters) UtilizationOut(e topology.PointID) float64 {
	b := c.net.Bout(e)
	if b == 0 {
		return 0
	}
	return float64(c.ale[int(e)]) / float64(b)
}

// CheckInvariant verifies no counter exceeds its capacity.
func (c *Counters) CheckInvariant() error {
	for i, u := range c.ali {
		if !units.FitsWithin(u, 0, c.net.Bin(topology.PointID(i))) {
			return fmt.Errorf("alloc: ali(%d)=%v exceeds capacity", i, u)
		}
	}
	for e, u := range c.ale {
		if !units.FitsWithin(u, 0, c.net.Bout(topology.PointID(e))) {
			return fmt.Errorf("alloc: ale(%d)=%v exceeds capacity", e, u)
		}
	}
	return nil
}
