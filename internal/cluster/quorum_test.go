package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/faults"
	"gridbw/internal/server"
	"gridbw/internal/units"
)

// The election sits with the candidate daemon, so these tests hand the
// watchdog a real server as its standby — Promote is the server's own, vote
// round included — and give that server its group as HTTP endpoints: real
// members, or voters scripted to grant, deny or be dark.

// member builds a WAL-backed follower of a primary that is never dialed,
// with the given peers as its vote set.
func member(t *testing.T, id string, peers []string) *server.Server {
	t.Helper()
	cfg := e2eConfig()
	cfg.WAL = e2eWAL(t, 1<<20)
	cfg.Follow = "http://127.0.0.1:0"
	cfg.ReplID = id
	cfg.Peers = peers
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// voter serves a scripted vote endpoint and returns its base URL.
func voter(t *testing.T, answer func(cluster.VoteRequest) cluster.VoteResponse) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req cluster.VoteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(answer(req))
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// darkURL is a member nobody can reach: its listener is already closed.
func darkURL() string {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	return ts.URL
}

// guard builds a watchdog whose standby is cand, wired as gridbwd -watch
// wires its own server; a nil probe is a primary that stays dead.
func guard(t *testing.T, cand *server.Server, misses int, probe func(context.Context) error) *cluster.Watchdog {
	t.Helper()
	if probe == nil {
		probe = func(context.Context) error { return errors.New("probe: primary dead") }
	}
	w, err := cluster.New(cluster.Config{
		Misses: misses, MaxLagBytes: -1,
		Probe: probe,
		StandbyStatus: func(context.Context) (cluster.ReplicationStatus, error) {
			return cand.ReplicationStatus(), nil
		},
		Promote: func(context.Context) (uint64, error) { return cand.Promote() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWatchdogQuorumDeniedHoldsForever: a candidate that cannot collect a
// peer majority must never promote, no matter how long the primary stays
// unreachable — the majority gate, not a timeout, is the promotion
// authority. Unreachable peers count as denials.
func TestWatchdogQuorumDeniedHoldsForever(t *testing.T) {
	var asked atomic.Int64
	grant := voter(t, func(req cluster.VoteRequest) cluster.VoteResponse {
		asked.Add(1)
		return cluster.VoteResponse{Granted: true, Voter: "a"} // one grant is short of the two needed
	})
	deny := voter(t, func(req cluster.VoteRequest) cluster.VoteResponse {
		asked.Add(1)
		return cluster.VoteResponse{Voter: "b", Reason: "already voted"}
	})
	cand := member(t, "candidate", []string{grant, deny, darkURL()}) // G=4, need 2 peer grants
	w := guard(t, cand, 2, nil)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if got := w.Tick(ctx); got == cluster.StatePromoting || got == cluster.StatePrimary {
			t.Fatalf("tick %d: reached %v without a peer majority", i, got)
		}
	}
	if !cand.Following() || cand.Epoch() != 1 {
		t.Fatalf("candidate promoted without quorum: following %v, epoch %d", cand.Following(), cand.Epoch())
	}
	st, votes := w.Status(), cand.Status().Stats
	if st.Stats.Promotions != 0 || st.Stats.PromoteAttempts == 0 {
		t.Fatalf("watchdog stats %+v, want attempts and no promotion", st.Stats)
	}
	if votes.VoteRounds != st.Stats.PromoteAttempts || votes.QuorumHolds != votes.VoteRounds {
		t.Fatalf("vote rounds %d, quorum holds %d, promote attempts %d; want every attempt a held round",
			votes.VoteRounds, votes.QuorumHolds, st.Stats.PromoteAttempts)
	}
	if votes.VotesGranted != votes.VoteRounds || votes.VotesDenied != 2*votes.VoteRounds {
		t.Fatalf("granted %d denied %d over %d rounds, want 1 and 2 per round", votes.VotesGranted, votes.VotesDenied, votes.VoteRounds)
	}
	if asked.Load() == 0 {
		t.Fatal("no peer was ever asked to vote")
	}
	if rs := cand.ReplicationStatus(); rs.VotedFor != "candidate" || rs.VotedEpoch < 2 {
		t.Fatalf("vote record %q@%d, want the candidate's own recorded vote", rs.VotedFor, rs.VotedEpoch)
	}
	if !strings.Contains(st.LastError, "quorum denied: 1 of 2 needed") {
		t.Fatalf("last error = %q, want the denied round surfaced", st.LastError)
	}
}

// TestWatchdogQuorumGrantedPromotes: enough peer grants complete the
// majority and the promote proceeds; the vote requests carry the
// candidate's id, its lineage and the bumped epoch.
func TestWatchdogQuorumGrantedPromotes(t *testing.T) {
	var mu sync.Mutex
	var reqs []cluster.VoteRequest
	peer := func(id string, grant bool) string {
		return voter(t, func(req cluster.VoteRequest) cluster.VoteResponse {
			mu.Lock()
			reqs = append(reqs, req)
			mu.Unlock()
			return cluster.VoteResponse{Granted: grant, Voter: id, Reason: "candidate behind"}
		})
	}
	// G=5, need 2 peer grants.
	cand := member(t, "standby-volume-b", []string{peer("p1", true), peer("p2", false), peer("p3", true), peer("p4", false)})
	w := guard(t, cand, 2, nil)
	ctx := context.Background()
	var state cluster.State
	for i := 0; i < 10 && state != cluster.StatePrimary; i++ {
		state = w.Tick(ctx)
	}
	if state != cluster.StatePrimary {
		t.Fatalf("state = %v, want primary after a granted quorum (%s)", state, w.Status().LastError)
	}
	if cand.Following() || cand.Epoch() != 2 || w.Status().Epoch != 2 {
		t.Fatalf("candidate following %v at epoch %d, watchdog epoch %d; want primary at 2", cand.Following(), cand.Epoch(), w.Status().Epoch)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reqs) == 0 {
		t.Fatal("no vote requests issued")
	}
	for _, r := range reqs {
		if r.Candidate != "standby-volume-b" || r.NewEpoch != 2 || r.Epoch != 1 {
			t.Fatalf("vote request %+v, want standby-volume-b bidding 2 over 1", r)
		}
	}
	if votes := cand.Status().Stats; votes.VoteRounds != 1 || votes.VotesGranted != 2 || votes.QuorumHolds != 0 {
		t.Fatalf("vote counters %+v, want one round won on two grants", votes)
	}
}

// TestWatchdogQuorumPartitionSeeds is the acceptance sweep for the
// majority gate: across 25 seeded outage schedules, a watchdog partitioned
// from a primary that is alive and still admitting must never promote
// while the candidate's peers deny it the majority — the live primary votes
// "no" and the third member is dark. Once the third member becomes
// reachable and grants (a true majority: candidate + one of three), the
// failover completes and the deposed lineage is fenced everywhere.
func TestWatchdogQuorumPartitionSeeds(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			inj, err := faults.New(faults.Config{Seed: seed, MeanUp: 5, MeanDown: 60})
			if err != nil {
				t.Fatal(err)
			}

			// The primary on the far side of the partition: alive, serving,
			// and — as a vote peer — denying every deposition attempt.
			primary, err := server.New(e2eConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			pts := httptest.NewServer(primary.Handler())
			defer pts.Close()

			// The third group member: dark during the partition phase, a
			// real follower of the primary's lineage once reachable.
			third := member(t, "third", nil)
			var thirdUp atomic.Bool
			tts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !thirdUp.Load() {
					http.Error(w, "partitioned", http.StatusServiceUnavailable)
					return
				}
				third.Handler().ServeHTTP(w, r)
			}))
			defer tts.Close()

			// G=3: the candidate needs one peer grant on top of its own vote.
			cand := member(t, "candidate", []string{pts.URL, tts.URL})
			probeAt := 0
			w := guard(t, cand, 3, func(context.Context) error {
				at := units.Time(probeAt)
				probeAt++
				if !inj.Arrive("watchdog/primary", at) {
					return errors.New("probe: partitioned")
				}
				return nil
			})
			ctx := context.Background()

			// Phase A: the watchdog sees only misses, but no majority exists —
			// the live primary denies and the third member is dark.
			for i := 0; i < 120; i++ {
				if got := w.Tick(ctx); got == cluster.StatePromoting || got == cluster.StatePrimary {
					t.Fatalf("tick %d: reached %v with the primary alive and no majority", i, got)
				}
			}
			if !cand.Following() {
				t.Fatal("promoted without a majority")
			}
			if cand.Status().Stats.VoteRounds == 0 {
				t.Fatalf("seed %d never elected: partition produced no 3-miss window in 120 ticks", seed)
			}
			// Clients on the primary's side of the partition are still served.
			d, err := primary.Submit(server.Submission{
				From: 0, To: 0, Volume: 1e9, Deadline: 3600, MaxRate: 50e6,
			})
			if err != nil || !d.Accepted {
				t.Fatalf("live partitioned primary stopped serving: %+v, %v", d, err)
			}

			// Phase B: the third member becomes reachable and grants — now
			// candidate + third is 2 of 3, a true majority over the lone
			// primary, and the failover may proceed.
			thirdUp.Store(true)
			var state cluster.State
			for i := 0; i < 2000 && state != cluster.StatePrimary; i++ {
				state = w.Tick(ctx)
			}
			if state != cluster.StatePrimary || cand.Following() {
				t.Fatalf("majority available but no promotion (state %v, %s)", state, w.Status().LastError)
			}
			// Every denied round burned the epoch it bid, so the lineage lands
			// past 2; the watchdog, the candidate and its voter agree on where.
			won := cand.Epoch()
			if rs := third.ReplicationStatus(); w.Status().Epoch != won || rs.VotedEpoch != won || rs.VotedFor != "candidate" {
				t.Fatalf("installed epoch %d, watchdog saw %d, voter recorded %q@%d", won, w.Status().Epoch, rs.VotedFor, rs.VotedEpoch)
			}

			// The deposed lineage is fenced at every replica of the new one:
			// no node admits epoch-1 batches once the new epoch exists.
			rcfg := e2eConfig()
			rcfg.Follow = "http://127.0.0.1:0"
			rcfg.WAL = e2eEpochWAL(t, won)
			replica, err := server.New(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer replica.Close()
			err = replica.ApplyShipped(cluster.ShippedBatch{Epoch: 1})
			var fenced *server.FencedError
			if !errors.As(err, &fenced) {
				t.Fatalf("deposed primary's batch: err = %v, want FencedError", err)
			}
		})
	}
}

// TestWatchdogRebidsPastBurnedEpoch: after a split round every voter's
// one durable vote for the epoch is spent, so the next bid must go one
// past the highest epoch the candidate has voted in — rival candidates
// pinned at the same number would deny each other forever.
func TestWatchdogRebidsPastBurnedEpoch(t *testing.T) {
	var mu sync.Mutex
	var bids []uint64
	peer := func(id string) string {
		return voter(t, func(req cluster.VoteRequest) cluster.VoteResponse {
			mu.Lock()
			bids = append(bids, req.NewEpoch)
			mu.Unlock()
			return cluster.VoteResponse{Granted: true, Voter: id}
		})
	}
	cand := member(t, "candidate", []string{peer("p1"), peer("p2")})
	// An earlier split round: the candidate's one vote for epoch 4 went to
	// a rival.
	if resp := cand.HandleVote(cluster.VoteRequest{Candidate: "rival", NewEpoch: 4, Epoch: 1}); !resp.Granted {
		t.Fatalf("seed vote denied: %s", resp.Reason)
	}
	w := guard(t, cand, 2, nil)
	ctx := context.Background()
	var state cluster.State
	for i := 0; i < 10 && state != cluster.StatePrimary; i++ {
		state = w.Tick(ctx)
	}
	if state != cluster.StatePrimary || cand.Epoch() != 5 {
		t.Fatalf("state %v at epoch %d, want primary at 5 (one past the burned vote at 4): %s", state, cand.Epoch(), w.Status().LastError)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bids) == 0 {
		t.Fatal("no peer was asked")
	}
	for _, b := range bids {
		if b != 5 {
			t.Fatalf("bid epoch %d, want 5", b)
		}
	}
}

// TestWatchdogRivalCandidatesNeverShareEpoch is the regression for the
// implicit-self-vote hole: primary A is dead, and followers B and C each
// run a watchdog over the same 3-member group (peers: A plus the rival),
// racing to promote. Every vote — each candidate's own included — goes
// through a real server's durable vote-once path, so whatever the
// interleaving, two lineages must never come up under the same epoch.
func TestWatchdogRivalCandidatesNeverShareEpoch(t *testing.T) {
	var b, c *server.Server
	late := func(target **server.Server) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*target).Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	bURL, cURL, dead := late(&b), late(&c), darkURL()
	b = member(t, "node-b", []string{dead, cURL})
	c = member(t, "node-c", []string{dead, bURL})
	wb, wc := guard(t, b, 1, nil), guard(t, c, 1, nil)

	ctx := context.Background()
	var wg sync.WaitGroup
	epochs := make([]uint64, 2)
	for i, w := range []*cluster.Watchdog{wb, wc} {
		wg.Add(1)
		go func(i int, w *cluster.Watchdog) {
			defer wg.Done()
			for n := 0; n < 400; n++ {
				if w.Tick(ctx) == cluster.StatePrimary {
					epochs[i] = w.Status().Epoch
					return
				}
				// Stagger the rivals unevenly so the race explores many
				// interleavings instead of locking into one phase.
				time.Sleep(time.Duration((n*(i+1))%5) * time.Microsecond)
			}
		}(i, w)
	}
	wg.Wait()

	if epochs[0] == 0 && epochs[1] == 0 {
		t.Fatal("no candidate ever won with a reachable rival voter")
	}
	if epochs[0] != 0 && epochs[1] != 0 && epochs[0] == epochs[1] {
		t.Fatalf("split brain: both candidates promoted at epoch %d", epochs[0])
	}
	// Cross-check the servers themselves, not just the watchdogs' view.
	rb, rc := b.ReplicationStatus(), c.ReplicationStatus()
	if rb.Role == "primary" && rc.Role == "primary" && rb.Epoch == rc.Epoch {
		t.Fatalf("split brain: both servers primary at epoch %d", rb.Epoch)
	}
}

// TestWatchdogPartitionFencing is the split-brain scenario of a peerless
// pair: a seeded fault schedule partitions the watchdog from a primary that
// is alive and still serving clients. The watchdog — seeing only misses —
// promotes the standby under a bumped epoch. The deposed primary stays
// harmless: any replica of the new lineage refuses its batches with a
// FencedError.
func TestWatchdogPartitionFencing(t *testing.T) {
	// The injected partition: an outage schedule for the watchdog→primary
	// link. The seed is fixed, so the assertion cannot flake.
	inj, err := faults.New(faults.Config{Seed: 7, MeanUp: 5, MeanDown: 60})
	if err != nil {
		t.Fatal(err)
	}
	probeAt := 0
	standby := member(t, "standby", nil)
	w := guard(t, standby, 3, func(context.Context) error {
		at := units.Time(probeAt)
		probeAt++
		if !inj.Arrive("watchdog/primary", at) {
			return errors.New("probe: partitioned")
		}
		return nil
	})
	ctx := context.Background()
	for i := 0; i < 2000 && w.Tick(ctx) != cluster.StatePrimary; i++ {
	}
	if standby.Following() || standby.Epoch() != 2 {
		t.Fatal("seeded partition never produced 3 consecutive misses; pick a different seed")
	}

	// The deposed primary is alive on the other side of the partition and
	// still ships epoch-1 batches. A follower of the new lineage (epoch 2)
	// must refuse them — that refusal is the whole split-brain defence.
	fcfg := e2eConfig()
	fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	fcfg.WAL = e2eEpochWAL(t, 2)
	replica, err := server.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	err = replica.ApplyShipped(cluster.ShippedBatch{Epoch: 1})
	var fenced *server.FencedError
	if !errors.As(err, &fenced) {
		t.Fatalf("deposed primary's batch: err = %v, want FencedError", err)
	}
	if fenced.Batch != 1 || fenced.Current != 2 {
		t.Fatalf("fence = %+v, want batch 1 vs current 2", fenced)
	}
}
