package server

import (
	"io"
	"testing"
	"time"

	"gridbw/internal/hold"
	"gridbw/internal/topology"
	"gridbw/internal/wire"
)

// HoldRows copies the hold table for the external tests: every hold in key
// order, then the resolved ones in the order retention evicts them.
func (s *Server) HoldRows() (all, retired []hold.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.holds.All() {
		all = append(all, *e)
	}
	for _, e := range s.holds.Retired() {
		retired = append(retired, *e)
	}
	return all, retired
}

// IdemOrder lists the filed idempotency keys in the order the cache evicts
// them.
func (s *Server) IdemOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	seen := make(map[string]bool)
	for _, key := range s.idemOrder {
		if _, ok := s.idem[key]; ok && !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	return keys
}

// LedgerFloors reports each point's profile floor, ingress points first:
// the instant before which the point has forgotten its bookings.
func (s *Server) LedgerFloors() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var floors []float64
	for dir, n := range []int{s.net.NumIngress(), s.net.NumEgress()} {
		for p := range n {
			floors = append(floors, float64(s.ledger.Floor(topology.Direction(dir), topology.PointID(p))))
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

// WantsUpgrade reports whether a request offers an upgrade, for the
// external tests.
var WantsUpgrade = wantsUpgrade

// PanicOn makes every call of op panic until t ends. Call it before any
// traffic reaches the servers t uses.
func PanicOn(t testing.TB, op wire.Op) {
	saved := serverOps[op]
	serverOps[op].call = func(*Server, *Call) Reply { panic("kaboom") }
	t.Cleanup(func() { serverOps[op] = saved })
}
