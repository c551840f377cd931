package cluster

import (
	"context"
	"fmt"
	"net/http"

	"gridbw/internal/wal"
)

// Member is everything the election rules read of one group member: its
// identity and role, its lineage (fencing epoch and applied cursor) and its
// durable vote-once record — the highest epoch it granted a promotion vote
// in and the candidate it endorsed. The rules below are pure functions of
// it; the daemon supplies the state under its lock and persists a changed
// vote record before the grant leaves the node.
type Member struct {
	ID         string
	Following  bool
	Epoch      uint64
	Cursor     wal.Pos
	VotedEpoch uint64
	VotedFor   string
}

// Bid is the vote request m stands for promotion with. The proposed epoch
// goes one past both m's lineage and the highest epoch m has voted in: a
// vote on record — m's own from a failed round, or a rival's — spends that
// number for good, so a fresh round must outbid it or rounds of rival
// candidates that each voted for themselves would deny one another at the
// same epoch forever. Tick jitter desynchronises rival bids so one of them
// reaches a majority first.
func (m Member) Bid() VoteRequest {
	return VoteRequest{
		Candidate: m.ID,
		NewEpoch:  max(m.Epoch, m.VotedEpoch) + 1,
		Epoch:     m.Epoch,
		Cursor:    m.Cursor,
	}
}

// Grant decides one vote request. It returns m as it stands after the vote
// and an empty reason on a grant, or m unchanged and the denial. The rules
// make a split-brain promotion impossible from the minority side:
//
//   - a node that is itself a live primary refuses — a vote request that
//     reached it proves it is alive, and a live primary must not endorse
//     its own deposition (a dead one simply never answers);
//   - NewEpoch must beat the voter's current epoch, so votes for already
//     superseded lineages die;
//   - one vote per epoch (re-granting the same candidate is idempotent, so
//     retries work);
//   - on the same lineage, a candidate whose applied cursor is behind the
//     voter's own is refused — promotion must go to the most-caught-up
//     member or acked history would be discarded.
func (m Member) Grant(req VoteRequest) (Member, string) {
	switch {
	case req.Candidate == "":
		return m, "anonymous candidate"
	case !m.Following:
		return m, "voter is a live primary"
	case req.NewEpoch <= m.Epoch:
		return m, fmt.Sprintf("stale election: proposed epoch %d not past current %d", req.NewEpoch, m.Epoch)
	case m.VotedEpoch >= req.NewEpoch && m.VotedFor != req.Candidate:
		return m, fmt.Sprintf("already voted for %q in epoch %d", m.VotedFor, m.VotedEpoch)
	case req.Epoch == m.Epoch && req.Cursor.Less(m.Cursor):
		return m, fmt.Sprintf("candidate cursor %v behind voter cursor %v", req.Cursor, m.Cursor)
	}
	if m.VotedEpoch < req.NewEpoch {
		m.VotedEpoch, m.VotedFor = req.NewEpoch, req.Candidate
	}
	return m, ""
}

// Install decides the epoch follower m serves as primary once promoted. won
// is the epoch a majority round just granted m, or 0 for a member without
// peers, which promotes on its own authority. Two lineages must never share
// an epoch number, so:
//
//   - after a round, m installs exactly the epoch the round won, and only
//     while its own vote record still endorses m for it and its lineage has
//     not reached that epoch by other means — a vote granted to a rival or a
//     batch applied from a newer primary while the round was out voids it;
//   - without a round, m installs the next epoch, raised to a higher one
//     its vote record endorses m for, and refuses when the record endorses
//     a rival at or past it.
func (m Member) Install(won uint64) (uint64, error) {
	endorsed := m.ID != "" && m.VotedFor == m.ID
	if won > 0 {
		if m.VotedEpoch != won || !endorsed || m.Epoch >= won {
			return 0, &Refusal{Reason: fmt.Sprintf(
				"promotion refused: round won epoch %d, but the node is at epoch %d and endorses %q for epoch %d",
				won, m.Epoch, m.VotedFor, m.VotedEpoch)}
		}
		return won, nil
	}
	next := m.Epoch + 1
	if m.VotedEpoch >= next {
		if !endorsed {
			return 0, &Refusal{Reason: fmt.Sprintf("promotion refused: endorsed %q for epoch %d", m.VotedFor, m.VotedEpoch)}
		}
		next = m.VotedEpoch
	}
	return next, nil
}

// Tally is the outcome of one vote round.
type Tally struct {
	// Epoch is the epoch the candidate bid for.
	Epoch uint64
	// Granted and Denied count the answers collected (unreachable peers
	// count as denied; a denied self-vote is the round's only answer);
	// Needed is how many peer grants complete the majority, and Quorum
	// whether the round got them.
	Granted, Denied, Needed int
	Quorum                  bool
	// Denial is the most telling "no", prefixed with who said it: the one
	// from the voter at the highest epoch — the member that beat the
	// candidate — and the latest to arrive among equals.
	Denial string
}

// Err is nil for a round that reached a majority and the Refusal for one
// that did not.
func (t Tally) Err() error {
	if t.Quorum {
		return nil
	}
	return &Refusal{
		Reason: fmt.Sprintf("quorum denied: %d of %d needed peer votes for epoch %d: %s",
			t.Granted, t.Needed, t.Epoch, t.Denial),
		Granted: t.Granted, Needed: t.Needed, Denial: t.Denial,
	}
}

// CollectVotes runs one promotion vote round for the candidate that bids
// req. The candidate first casts its own vote through its durable vote-once
// path (self); only if that grant lands — meaning the candidate has not
// already endorsed a rival for the proposed epoch — are the peers asked,
// concurrently, and the round succeeds once Majority(len(peers)+1)-1 of
// them grant (the recorded self-vote completes the strict majority).
// Because every vote, including the candidate's own, goes through the same
// persisted one-vote-per-epoch rules, two candidates can never both
// assemble a majority for the same epoch. Unreachable peers count as
// denials — a partitioned candidate cannot talk its way past the quorum —
// and a grant whose Voter is the candidate's own id counts for nothing: a
// member that lists itself among its peers has already voted once.
func CollectVotes(ctx context.Context, hc *http.Client, req VoteRequest,
	self func(VoteRequest) VoteResponse, peers []string) Tally {
	t := Tally{Epoch: req.NewEpoch, Needed: Majority(len(peers)+1) - 1}
	if own := self(req); !own.Granted {
		t.Denied, t.Denial = 1, "self-vote: "+own.Reason
		return t
	}
	var denialEpoch uint64
	deny := func(epoch uint64, text string) {
		t.Denied++
		if epoch >= denialEpoch {
			denialEpoch, t.Denial = epoch, text
		}
	}
	type answer struct {
		peer string
		resp VoteResponse
		err  error
	}
	ch := make(chan answer, len(peers))
	for _, p := range peers {
		go func(peer string) {
			resp, err := PostVote(ctx, hc, peer, req)
			ch <- answer{peer, resp, err}
		}(p)
	}
	for i := 0; i < len(peers) && t.Granted < t.Needed; i++ {
		a := <-ch
		switch {
		case a.err != nil:
			deny(0, fmt.Sprintf("%s: %v", a.peer, a.err))
		case !a.resp.Granted:
			deny(a.resp.Epoch, fmt.Sprintf("%s (%s, epoch %d): %s", a.peer, a.resp.Voter, a.resp.Epoch, a.resp.Reason))
		case a.resp.Voter == req.Candidate:
			// Not a denial and not a grant: the entry is the candidate.
		default:
			t.Granted++
		}
	}
	t.Quorum = t.Granted >= t.Needed
	return t
}
