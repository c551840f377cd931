package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gridbw/internal/wal"
)

// scriptedGroup is a member list without sockets: an http.RoundTripper that
// answers each member's control endpoints from a script.
type scriptedGroup map[string]*scriptedMember

type scriptedMember struct {
	status *ReplicationStatus // with vote nil too: the dial is refused
	vote   func(VoteRequest) VoteResponse
	// after names members this one lets answer first; never holds its
	// answer back until the caller gives up.
	after []string
	never bool

	once   sync.Once
	served chan struct{} // closed once the member has answered
	asked  atomic.Int64  // vote requests received
}

func script(g scriptedGroup) scriptedGroup {
	for _, m := range g {
		m.served = make(chan struct{})
	}
	return g
}

func (g scriptedGroup) RoundTrip(r *http.Request) (*http.Response, error) {
	m := g["http://"+r.URL.Host]
	defer m.once.Do(func() { close(m.served) })
	if m.status == nil && m.vote == nil {
		return nil, errors.New("dial: connection refused")
	}
	wait := make([]<-chan struct{}, 0, len(m.after)+1)
	for _, u := range m.after {
		wait = append(wait, g[u].served)
	}
	if m.never {
		wait = append(wait, nil)
	}
	for _, ch := range wait {
		select {
		case <-ch:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	var body any = m.status
	if r.URL.Path == "/v1/replication/vote" {
		var req VoteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, err
		}
		m.asked.Add(1)
		body = m.vote(req)
	}
	blob, err := json.Marshal(body)
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(blob)), Request: r}, err
}

func (g scriptedGroup) members() []string {
	out := make([]string, 0, len(g))
	for u := range g {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func primaryAt(epoch uint64) *ReplicationStatus {
	return &ReplicationStatus{Role: "primary", Epoch: epoch}
}

func followerAt(epoch uint64, off int64) *ReplicationStatus {
	return &ReplicationStatus{Role: "follower", Epoch: epoch, Cursor: wal.Pos{Seg: 1, Off: off}}
}

// TestSurveyPicksTheEpochDominantPrimary is the table every status sweep in
// the tree answers to — the client's rediscovery, a follower's re-pointing,
// the watchdog's re-arm and gridbwctl's discovery are all Survey plus a
// picker. Each case's outcome holds for any arrival order the script allows.
func TestSurveyPicksTheEpochDominantPrimary(t *testing.T) {
	cases := []struct {
		name        string
		group       scriptedGroup
		floor       uint64
		wantPrimary string // "" = none
		wantStandby string
		wantAnswers int
	}{
		{
			name: "deposed primary answers first, higher-epoch winner last",
			group: scriptedGroup{
				"http://a": {status: primaryAt(1)},
				"http://b": {},
				"http://c": {status: primaryAt(2), after: []string{"http://a", "http://b"}},
			},
			wantPrimary: "http://c", wantAnswers: 2,
		},
		{
			name: "a majority at the winner's epoch ends the sweep without the hung member",
			group: scriptedGroup{
				"http://a": {status: primaryAt(2)},
				"http://b": {status: followerAt(2, 10)},
				"http://c": {status: followerAt(2, 20), never: true},
			},
			wantPrimary: "http://a", wantStandby: "http://b", wantAnswers: 2,
		},
		{
			name: "refused dials do not count as answers",
			group: scriptedGroup{
				"http://a": {status: primaryAt(1)},
				"http://b": {},
				"http://c": {},
				"http://d": {status: followerAt(2, 10), after: []string{"http://a", "http://b", "http://c"}},
				"http://e": {status: primaryAt(2), after: []string{"http://d"}},
			},
			wantPrimary: "http://e", wantStandby: "http://d", wantAnswers: 3,
		},
		{
			name: "no primary anywhere",
			group: scriptedGroup{
				"http://a": {status: followerAt(1, 10)},
				"http://b": {status: followerAt(1, 30)},
				"http://c": {},
			},
			wantStandby: "http://b", wantAnswers: 2,
		},
		{
			name: "a follower never re-points at a lineage it out-epoched",
			group: scriptedGroup{
				"http://a": {status: primaryAt(1)},
				"http://b": {status: followerAt(2, 10)},
				"http://c": {},
			},
			floor:       2,
			wantStandby: "http://b", wantAnswers: 2,
		},
		{
			name: "the floor admits a primary at the follower's own epoch",
			group: scriptedGroup{
				"http://a": {status: primaryAt(2)},
				"http://b": {status: followerAt(2, 10)},
			},
			floor:       2,
			wantPrimary: "http://a", wantStandby: "http://b", wantAnswers: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got := Survey(ctx, &http.Client{Transport: script(tc.group)}, tc.group.members())
			if len(got) != tc.wantAnswers {
				t.Fatalf("%d answers, want %d: %+v", len(got), tc.wantAnswers, got)
			}
			if url, _, ok := got.Primary(tc.floor); url != tc.wantPrimary || ok != (tc.wantPrimary != "") {
				t.Fatalf("primary = %q (%v), want %q", url, ok, tc.wantPrimary)
			}
			if url, _ := got.Follower(); url != tc.wantStandby {
				t.Fatalf("most caught-up follower = %q, want %q", url, tc.wantStandby)
			}
		})
	}
}

func grantAs(id string) func(VoteRequest) VoteResponse {
	return func(VoteRequest) VoteResponse { return VoteResponse{Granted: true, Voter: id} }
}

// TestCollectVotesSelfVetoAsksNoPeer: a candidate that already endorsed a
// rival for the proposed epoch must abort the round before any peer is
// asked — its own vote is cast through the durable vote-once path, never
// assumed.
func TestCollectVotesSelfVetoAsksNoPeer(t *testing.T) {
	group := script(scriptedGroup{"http://a": {vote: grantAs("a")}, "http://b": {vote: grantAs("b")}})
	veto := func(VoteRequest) VoteResponse {
		return VoteResponse{Reason: `already voted for "rival" in epoch 2`}
	}
	tally := CollectVotes(context.Background(), &http.Client{Transport: group},
		VoteRequest{Candidate: "c", NewEpoch: 2, Epoch: 1}, veto, group.members())
	if tally.Quorum || tally.Granted != 0 || tally.Denied != 1 {
		t.Fatalf("tally %+v, want a round denied by its own candidate", tally)
	}
	if group["http://a"].asked.Load()+group["http://b"].asked.Load() != 0 {
		t.Fatal("self-vote veto leaked peer vote requests")
	}
	var refused *Refusal
	if err := tally.Err(); !errors.As(err, &refused) || !strings.Contains(refused.Reason, `self-vote: already voted for "rival"`) {
		t.Fatalf("err = %v, want the self-vote denial surfaced as a Refusal", err)
	}
}

// TestCollectVotesIgnoresOwnGrant: a member that lists itself among its
// peers answers its own vote request with an (idempotent) grant. Counting it
// would let the candidate vote twice — here it would win a 3-member group
// alone, with both other members dead.
func TestCollectVotesIgnoresOwnGrant(t *testing.T) {
	self := grantAs("c")
	group := script(scriptedGroup{"http://a": {}, "http://b": {}, "http://c": {vote: self}})
	req := VoteRequest{Candidate: "c", NewEpoch: 2, Epoch: 1}
	tally := CollectVotes(context.Background(), &http.Client{Transport: group}, req, self, group.members())
	if tally.Quorum || tally.Granted != 0 || tally.Denied != 2 {
		t.Fatalf("tally %+v, want no quorum: the only grant is the candidate's own", tally)
	}
	// With one real peer alive the same self-listing group does elect: the
	// list of three reads as a group of four, so it takes both other members.
	group["http://a"].vote = grantAs("a")
	if tally = CollectVotes(context.Background(), &http.Client{Transport: group}, req, self, group.members()); tally.Quorum {
		t.Fatalf("tally %+v, want no quorum on one real grant of the two a group of four needs", tally)
	}
	group["http://b"].vote = grantAs("b")
	if tally = CollectVotes(context.Background(), &http.Client{Transport: group}, req, self, group.members()); !tally.Quorum || tally.Granted != 2 {
		t.Fatalf("tally %+v, want quorum on the two real grants", tally)
	}
}

// modelVoter is one group member in the small model: what it holds in
// memory, and the vote record it has persisted. The daemon persists a
// changed record before it adopts or answers with it, and a restart reloads
// only that record.
type modelVoter struct {
	mem  Member
	disk wal.Vote
}

func (v *modelVoter) vote(req VoteRequest) bool {
	next, reason := v.mem.Grant(req)
	if reason != "" {
		return false
	}
	v.disk = wal.Vote{Epoch: next.VotedEpoch, Candidate: next.VotedFor}
	v.mem = next
	return true
}

func (v *modelVoter) restart() { v.mem.VotedEpoch, v.mem.VotedFor = v.disk.Epoch, v.disk.Candidate }

// modelState is the whole group between two events, comparable so that the
// states already explored can key a map. Candidates are voters 0 and 1, and
// each bids at most twice: bids[c][k] is candidate c's k-th request,
// pending[c][k] the set (a bitmask) of voters it has yet to reach, round[c]
// the bid c is still counting grants for (-1: none), won[e] the candidate
// (plus one) that collected a majority for epoch e.
type modelState struct {
	voters  [5]modelVoter
	bids    [2][2]VoteRequest
	pending [2][2]uint8
	round   [2]int8
	granted [2]int8
	won     [8]int8
}

// bid opens candidate c's k-th round: its own vote first, then a request to
// every other one of the n voters. A vetoed self-vote opens nothing.
func (st *modelState) bid(c, k, n int) {
	st.round[c], st.granted[c] = -1, 0
	req := st.voters[c].mem.Bid()
	if !st.voters[c].vote(req) {
		return
	}
	st.round[c], st.bids[c][k] = int8(k), req
	st.pending[c][k] = uint8(1<<n-1) &^ uint8(1<<c)
}

// TestElectionSmallModelNeverSplitsAnEpoch checks the pure rules
// exhaustively on groups of 3 and 5: two rival candidates, every order of
// delivering their vote requests, every voter restarted before each request
// it receives (so a decision never rests on anything but the persisted
// record), and each candidate bidding a second time past the burned epoch —
// in the group of 3 at any moment, so requests of the abandoned round still
// arrive, arbitrarily late, and spend votes without being counted. No
// epoch may ever collect two majorities, and a candidate whose round reaches
// a majority installs exactly the epoch it bid, with its own endorsement
// for it on disk.
func TestElectionSmallModelNeverSplitsAnEpoch(t *testing.T) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("%d-voters", n), func(t *testing.T) {
			seen := map[modelState]bool{}
			installs := 0
			var explore func(st modelState)
			deliver := func(st modelState, c, k, p int) modelState {
				st.pending[c][k] &^= 1 << p
				st.voters[p].restart()
				req := st.bids[c][k]
				cand := &st.voters[c]
				if !st.voters[p].vote(req) || int8(k) != st.round[c] || !cand.mem.Following {
					return st
				}
				if st.granted[c]++; int(st.granted[c]) != Majority(n)-1 {
					return st
				}
				if w := st.won[req.NewEpoch]; w != 0 && int(w) != c+1 {
					t.Fatalf("epoch %d collected two majorities: m%d and m%d", req.NewEpoch, w-1, c)
				}
				st.won[req.NewEpoch] = int8(c + 1)
				if got, err := cand.mem.Install(req.NewEpoch); err == nil {
					if want := (wal.Vote{Epoch: got, Candidate: cand.mem.ID}); got != req.NewEpoch || cand.disk != want {
						t.Fatalf("m%d installs epoch %d on a majority for %d with %+v on disk", c, got, req.NewEpoch, cand.disk)
					}
					cand.mem.Following, cand.mem.Epoch = false, got
					installs++
				}
				return st
			}
			explore = func(st modelState) {
				if seen[st] {
					return
				}
				seen[st] = true
				for c := 0; c < 2; c++ {
					for k := 0; k < 2; k++ {
						for p := 0; p < n; p++ {
							if st.pending[c][k]&(1<<p) != 0 {
								explore(deliver(st, c, k, p))
							}
						}
					}
					// Three voters may abandon a round at any moment; five only
					// re-bid once theirs is fully delivered (abandoning at will
					// there is ~400k states of ~700 bytes).
					if st.round[c] == 0 && st.voters[c].mem.Following && (n == 3 || st.pending[c][0] == 0) {
						next := st
						next.bid(c, 1, n)
						explore(next)
					}
				}
			}
			var start modelState
			for i := 0; i < n; i++ {
				start.voters[i].mem = Member{ID: fmt.Sprintf("m%d", i), Following: true, Epoch: 1}
			}
			start.bid(0, 0, n)
			start.bid(1, 0, n)
			explore(start)
			if installs == 0 {
				t.Fatal("no candidate ever installed an epoch; the model is not exercising the rules")
			}
			t.Logf("%d voters: %d distinct states, %d installs", n, len(seen), installs)
		})
	}
}

// TestInstallWithoutARoundHonoursTheVoteRecord pins the peerless install
// rule: the next epoch, raised to one the record endorses the node for,
// refused when the record endorses a rival.
func TestInstallWithoutARoundHonoursTheVoteRecord(t *testing.T) {
	m := Member{ID: "b", Following: true, Epoch: 1}
	if epoch, err := m.Install(0); err != nil || epoch != 2 {
		t.Fatalf("fresh install = %d, %v; want 2", epoch, err)
	}
	m.VotedEpoch, m.VotedFor = 4, "b"
	if epoch, err := m.Install(0); err != nil || epoch != 4 {
		t.Fatalf("install with own vote at 4 = %d, %v; want 4", epoch, err)
	}
	m.VotedFor = "rival"
	var refused *Refusal
	if _, err := m.Install(0); !errors.As(err, &refused) {
		t.Fatalf("install over a rival's endorsement: err = %v, want a Refusal", err)
	}
	m.VotedEpoch = 1 // a vote at or below the lineage constrains nothing
	if epoch, err := m.Install(0); err != nil || epoch != 2 {
		t.Fatalf("install past a stale vote = %d, %v; want 2", epoch, err)
	}
}
