package server_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"gridbw/internal/server"
)

// promoteOverHTTP is the bare `curl -X POST …/v1/replication/promote`.
func promoteOverHTTP(t *testing.T, base string) (code int, body map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/replication/promote", "", nil)
	if err != nil {
		t.Fatalf("promote %s: %v", base, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("promote %s: HTTP %d, undecodable body: %v", base, resp.StatusCode, err)
	}
	return resp.StatusCode, body
}

// TestBarePromoteCannotSplitAnEpoch is the regression test for the promote
// endpoint walking around the majority gate: the gate used to live in the
// watchdog only, so a bare POST to follower A and then to follower B of the
// same group made both of them primary at epoch 2. The election now sits
// with the daemon being promoted, so whoever asks goes through it.
func TestBarePromoteCannotSplitAnEpoch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		peers       bool // a three-member group, or a peerless pair
		killPrimary bool
	}{
		{"live primary", true, false},
		{"dead primary", true, true},
		{"peerless pair", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{}
			var srvP, srvA, srvB *server.Server
			tsP := newDelegatingServer(t, &srvP)
			tsA := newDelegatingServer(t, &srvA)
			tsB := newDelegatingServer(t, &srvB)
			boot := func(id, follow string, peers ...string) *server.Server {
				cfg := uniformConfig(clk)
				cfg.WAL = openTestWAL(t)
				cfg.ReplID = id
				cfg.Follow = follow
				if tc.peers {
					cfg.Peers = peers
				}
				s := newTestServer(t, cfg)
				if follow != "" {
					if err := s.StartFollowing(); err != nil {
						t.Fatalf("%s StartFollowing: %v", id, err)
					}
				}
				return s
			}
			srvP = boot("P", "", tsA.URL, tsB.URL)
			srvA = boot("A", tsP.URL, tsP.URL, tsB.URL)
			srvB = boot("B", tsP.URL, tsP.URL, tsA.URL)
			d, err := srvP.Submit(server.Submission{From: 0, To: 1, Volume: 10e9, Deadline: 400, MaxRate: 100e6})
			if err != nil || !d.Accepted {
				t.Fatalf("seed submit: %v %+v", err, d)
			}
			for _, s := range []*server.Server{srvA, srvB} {
				s := s
				waitFor(t, "catch-up", func() bool {
					rs := s.ReplicationStatus()
					return rs.Applied >= 1 && rs.LagBytes == 0
				})
			}
			if tc.killPrimary {
				tsP.Close()
				srvP.Close()
			}

			codeA, bodyA := promoteOverHTTP(t, tsA.URL)
			if codeA != http.StatusOK || bodyA["role"] != "primary" || bodyA["epoch"] != 2.0 {
				t.Fatalf("promote A: HTTP %d %v, want primary at epoch 2", codeA, bodyA)
			}
			if !tc.peers {
				// A pair has nobody to ask: the promote is direct, and repeating
				// it is idempotent.
				if code, body := promoteOverHTTP(t, tsA.URL); code != http.StatusOK || body["epoch"] != 2.0 {
					t.Fatalf("repeat promote A: HTTP %d %v, want the same epoch 2", code, body)
				}
				return
			}
			codeB, bodyB := promoteOverHTTP(t, tsB.URL)

			// One lineage per epoch: no two members may report primary at the
			// same epoch, and of the two followers at most one took over.
			primaryAt := map[uint64]string{}
			members := map[string]*server.Server{"A": srvA, "B": srvB}
			if !tc.killPrimary {
				members["P"] = srvP
			}
			for id, s := range members {
				rs := s.ReplicationStatus()
				if rs.Role != "primary" {
					continue
				}
				if other, dup := primaryAt[rs.Epoch]; dup {
					t.Fatalf("split brain: %s and %s both primary at epoch %d", other, id, rs.Epoch)
				}
				primaryAt[rs.Epoch] = id
			}
			if !srvA.Following() && !srvB.Following() {
				t.Fatalf("both followers promoted: A at epoch %d, B at epoch %d", srvA.Epoch(), srvB.Epoch())
			}

			// B lost, and its answer says to whom: a protocol refusal naming the
			// voter that beat it, not a server fault.
			if codeB != http.StatusConflict {
				t.Fatalf("promote B: HTTP %d %v, want 409", codeB, bodyB)
			}
			reason, _ := bodyB["error"].(string)
			denial, _ := bodyB["denial"].(string)
			if !strings.Contains(reason, "quorum denied") || bodyB["needed"] != 1.0 || bodyB["granted"] != nil {
				t.Fatalf("promote B refusal %v, want a denied quorum with 0 of 1 needed votes", bodyB)
			}
			if !strings.Contains(denial, tsA.URL) || !strings.Contains(denial, "(A, epoch 2)") {
				t.Fatalf("promote B denial %q, want it to name A at epoch 2", denial)
			}
			if st := srvB.Status().Stats; st.VoteRounds != 1 || st.QuorumHolds != 1 {
				t.Fatalf("B's vote counters %+v, want its one held round", st)
			}
			if st := srvA.Status().Stats; st.VoteRounds != 1 || st.VotesGranted != 1 || st.QuorumHolds != 0 {
				t.Fatalf("A's vote counters %+v, want one round won on B's grant", st)
			}
		})
	}
}
