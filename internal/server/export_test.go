package server

import (
	"testing"
	"time"

	"gridbw/internal/hold"
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

// The replication stream's codec, for the external tests.
var (
	AppendReplBatch = appendReplBatch
	AppendReplGone  = appendReplGone
	DecodeReplFrame = decodeReplFrame
	ReadReplFrame   = readReplFrame
	AppendReplAck   = appendPos
	DecodeReplAck   = decodeReplAck
)

// SetStreamClocks shrinks the stream's heartbeat and idle bound until t
// ends. Call it before starting the servers t uses.
func SetStreamClocks(t testing.TB, heartbeat, idle time.Duration) {
	oldHeartbeat, oldIdle := streamHeartbeat, streamIdle
	streamHeartbeat, streamIdle = heartbeat, idle
	t.Cleanup(func() { streamHeartbeat, streamIdle = oldHeartbeat, oldIdle })
}
