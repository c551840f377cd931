//go:build unix

package server_test

import (
	"syscall"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/units"
)

// TestFarExpiryLeavesTheLoopAsleep: a grant whose τ lies further out than a
// time.Duration reaches (about 292 years) is the earliest pending event, and
// the expiry loop must sleep towards it, not wake again at once. Over 300 ms
// of idle wall time the process may spend at most 100 ms of CPU; a loop that
// spins on the server's lock spends about all of it.
func TestFarExpiryLeavesTheLoopAsleep(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	d, err := s.Submit(server.Submission{From: 0, To: 0, Volume: units.GB, Deadline: 1e10, MaxRate: units.GBps})
	if err != nil || !d.Accepted || d.Tau != 1e10 {
		t.Fatalf("submit: %+v, %v; want a grant until τ = 1e10", d, err)
	}
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	before := cpu()
	time.Sleep(300 * time.Millisecond)
	if used := cpu() - before; used > 100*time.Millisecond {
		t.Errorf("the process spent %v of CPU over 300 ms idle", used)
	}
}
