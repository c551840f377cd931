package server_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"gridbw/internal/server"
)

// TestFollowerRediscoversPrimaryAfterFailover is the regression test for
// the post-election orphan: a three-node group loses its primary, one
// follower is promoted — by a bare Promote, which on a member that has
// peers means winning the other follower's vote first — and the *other*
// follower — still pointed at the dead endpoint — must rediscover the
// epoch-dominant primary from its configured peer list, re-point its pull
// cursor, and resume applying the new primary's decisions.
func TestFollowerRediscoversPrimaryAfterFailover(t *testing.T) {
	clk := &fakeClock{}

	// Every member lists the other two as its peers, so the base URLs must
	// exist before the servers do: each httptest server delegates through a
	// late-bound pointer. No request arrives before the pointer is set.
	var srvP, srvA, srvB *server.Server
	tsP := newDelegatingServer(t, &srvP)
	tsA := newDelegatingServer(t, &srvA)
	tsB := newDelegatingServer(t, &srvB)

	pcfg := uniformConfig(clk)
	pcfg.WAL = openTestWAL(t)
	pcfg.ReplID = "P"
	pcfg.Peers = []string{tsA.URL, tsB.URL}
	srvP = newTestServer(t, pcfg)

	newFollower := func(name string, peers ...string) *server.Server {
		cfg := uniformConfig(clk)
		cfg.WAL = openTestWAL(t)
		cfg.Follow = tsP.URL
		cfg.ReplID = name
		cfg.Peers = peers
		s := newTestServer(t, cfg)
		if err := s.StartFollowing(); err != nil {
			t.Fatalf("%s StartFollowing: %v", name, err)
		}
		return s
	}
	srvA = newFollower("A", tsP.URL, tsB.URL)
	srvB = newFollower("B", tsP.URL, tsA.URL)

	// Seed history so both followers share the primary's lineage.
	d, err := srvP.Submit(server.Submission{From: 0, To: 1, Volume: 10e9, Deadline: 400, MaxRate: 100e6})
	if err != nil || !d.Accepted {
		t.Fatalf("seed submit: %v %+v", err, d)
	}
	for name, s := range map[string]*server.Server{"A": srvA, "B": srvB} {
		s := s
		waitFor(t, name+" catch-up", func() bool {
			rs := s.ReplicationStatus()
			return rs.Applied >= 1 && rs.LagBytes == 0
		})
	}

	// Kill the primary: endpoint down, process gone.
	tsP.Close()
	srvP.Close()

	// Promote A directly (the watchdog path is exercised elsewhere): B's
	// grant and A's own vote are two of three.
	if _, err := srvA.Promote(); err != nil {
		t.Fatalf("promote A: %v", err)
	}
	if rs := srvB.ReplicationStatus(); rs.VotedFor != "A" || rs.VotedEpoch != 2 {
		t.Fatalf("B's vote record %q@%d, want A@2", rs.VotedFor, rs.VotedEpoch)
	}

	// B must converge on A without any nudge: its pull loop sees repeated
	// transport failures against the dead endpoint, probes the peer list,
	// and re-points at the highest-epoch live primary.
	waitFor(t, "B re-pointing at A", func() bool {
		rs := srvB.ReplicationStatus()
		return rs.Role == "follower" && rs.Source == tsA.URL
	})

	// New decisions on A reach B through the re-pointed stream.
	d2, err := srvA.Submit(server.Submission{From: 1, To: 0, Volume: 5e9, Deadline: 400, MaxRate: 100e6})
	if err != nil || !d2.Accepted {
		t.Fatalf("post-failover submit on A: %v %+v", err, d2)
	}
	waitFor(t, "B applying A's decision", func() bool {
		rs := srvB.ReplicationStatus()
		if rs.Epoch < 2 {
			return false
		}
		_, err := srvB.Lookup(d2.ID)
		return err == nil
	})
	if st := srvB.Status(); st.Active != 2 {
		t.Fatalf("B active after failover = %d, want 2", st.Active)
	}
}

// newDelegatingServer starts an httptest server whose handler resolves the
// target *server.Server at request time, so the URL exists before the
// server it fronts.
func newDelegatingServer(t *testing.T, target **server.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := *target
		if s == nil {
			http.Error(w, "not up yet", http.StatusServiceUnavailable)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}
