package server

import (
	"io"
	"testing"
	"time"

	"gridbw/internal/callplane"
	"gridbw/internal/hold"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/wire"
)

// NewFromSnapshot is the checkpoint install of New's boot alone, running:
// snap's platform, policy and state, and no WAL replayed past it.
func NewFromSnapshot(snap *Snapshot, cfg Config) (*Server, error) {
	s, err := newFromSnapshot(snap, cfg)
	if err != nil {
		return nil, err
	}
	go s.loop()
	return s, nil
}

// ApplyEvents replays recovered events as New's boot replays the WAL.
func (s *Server) ApplyEvents(events []trace.Event) (int, error) { return s.applyEvents(events) }

// HoldRows copies the hold table for the external tests: every hold in key
// order, then the resolved ones in the order retention evicts them.
func (s *Server) HoldRows() (all, retired []hold.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.HoldRows()
}

// IdemOrder lists the filed idempotency keys in the order the cache evicts
// them: a snapshot lists the keyed decisions first, in that order.
func (s *Server) IdemOrder() []string {
	var keys []string
	for _, ev := range s.Snapshot().Events {
		if ev.Key != "" {
			keys = append(keys, ev.Key)
		}
	}
	return keys
}

// LedgerFloors reports each point's profile floor, ingress points first:
// the instant before which the point has forgotten its bookings.
func (s *Server) LedgerFloors() []float64 {
	ledger := s.ledger()
	var floors []float64
	for dir, n := range []int{s.net.NumIngress(), s.net.NumEgress()} {
		for p := range n {
			floors = append(floors, float64(ledger.Floor(topology.Direction(dir), topology.PointID(p))))
		}
	}
	return floors
}

// AppendReplReseed is the re-seed a primary streams, for the external
// tests.
var AppendReplReseed = appendReplReseed

// FollowStream is the follower's side of one replication stream over rw,
// as the pull loop runs it once a pull is upgraded: it returns when rw
// ends or a frame fails.
func (s *Server) FollowStream(rw io.ReadWriter) error {
	watchdog := time.NewTimer(time.Hour)
	defer watchdog.Stop()
	return s.followStream(rw, watchdog, func() {})
}

// SetStreamClocks shrinks the stream's heartbeat and idle bound until t
// ends. Call it before starting the servers t uses.
func SetStreamClocks(t testing.TB, heartbeat, idle time.Duration) {
	oldHeartbeat, oldIdle := streamHeartbeat, streamIdle
	streamHeartbeat, streamIdle = heartbeat, idle
	t.Cleanup(func() { streamHeartbeat, streamIdle = oldHeartbeat, oldIdle })
}

// PanicOn makes every call of op panic until t ends. Call it before any
// traffic reaches the servers t uses.
func PanicOn(t testing.TB, op wire.Op) {
	saved := serverOps[op]
	serverOps[op].call = func(*Server, *callplane.Call) callplane.Reply { panic("kaboom") }
	t.Cleanup(func() { serverOps[op] = saved })
}
