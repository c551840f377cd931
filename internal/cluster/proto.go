package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"gridbw/internal/wal"
)

// FollowerStatus is one follower's replication progress as seen from its
// primary: the last cursor it presented on pull, how many committed
// bytes it still trails the frontier by, and how long ago it reported.
type FollowerStatus struct {
	Cursor   wal.Pos `json:"cursor"`
	LagBytes int64   `json:"lag_bytes"`
	AgeS     float64 `json:"age_s"`
}

// ReplicationStatus is the GET /v1/replication/status body.
type ReplicationStatus struct {
	Role    string  `json:"role"`
	ID      string  `json:"id,omitempty"`
	Epoch   uint64  `json:"epoch"`
	Source  string  `json:"source,omitempty"`
	Cursor  wal.Pos `json:"cursor"`
	Applied uint64  `json:"applied_records"`
	// LagBytes is the primary's committed bytes this follower has not yet
	// applied, as reported by the last pulled batch; 0 on a primary.
	LagBytes   int64   `json:"lag_bytes"`
	LastPullS  float64 `json:"last_pull_age_s,omitempty"`
	LastError  string  `json:"last_error,omitempty"`
	WALRecords uint64  `json:"wal_records"`
	WALEnd     wal.Pos `json:"wal_end"`
	// Followers maps each identified follower to its progress — only a
	// primary that has served identified pulls reports any.
	Followers map[string]FollowerStatus `json:"followers,omitempty"`
	// SyncMode/SyncAcks echo the configured synchronous-ack durability.
	SyncMode string `json:"sync_mode,omitempty"`
	SyncAcks int    `json:"sync_acks,omitempty"`
	// VotedEpoch/VotedFor expose the durable vote-once record.
	VotedEpoch uint64 `json:"voted_epoch,omitempty"`
	VotedFor   string `json:"voted_for,omitempty"`
}

// PromoteJSON is the 200 body of POST /v1/replication/promote.
type PromoteJSON struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
}

// Refusal is a promotion the protocol turned down — the candidate endorsed
// a rival, or its vote round fell short of a majority. It is both the
// error Server.Promote returns and the 409 body of the promote endpoint.
// Granted, Needed and Denial describe a denied round (Denial names the
// voter that said no, which is who beat the candidate); they are zero when
// no round ran.
type Refusal struct {
	Reason  string `json:"error"`
	Granted int    `json:"granted,omitempty"`
	Needed  int    `json:"needed,omitempty"`
	Denial  string `json:"denial,omitempty"`
}

func (r *Refusal) Error() string { return r.Reason }

// VoteRequest asks a member to endorse Candidate's promotion to NewEpoch.
// Epoch and Cursor are the candidate's current lineage and applied
// frontier, so a voter on the same lineage can refuse a candidate that is
// behind its own history.
type VoteRequest struct {
	Candidate string  `json:"candidate"`
	NewEpoch  uint64  `json:"new_epoch"`
	Epoch     uint64  `json:"epoch"`
	Cursor    wal.Pos `json:"cursor"`
}

// VoteResponse is one voter's answer: granted or not, plus the voter's
// own identity, epoch and cursor so a denied candidate can see who beat
// it and by how much.
type VoteResponse struct {
	Granted bool    `json:"granted"`
	Voter   string  `json:"voter,omitempty"`
	Epoch   uint64  `json:"epoch"`
	Cursor  wal.Pos `json:"cursor"`
	Reason  string  `json:"reason,omitempty"`
}

// Majority is the strict majority of a group of the given size. A daemon's
// -peers list names every OTHER member, so its group has len(peers)+1
// members and both the sync-ack quorum and a vote round need
// Majority(len(peers)+1)-1 peers on top of the daemon itself.
func Majority(members int) int { return members/2 + 1 }

// SplitURLs parses a comma-separated list of base URLs, trimming blanks
// and trailing slashes and dropping empty entries.
func SplitURLs(list string) []string {
	var out []string
	for _, part := range strings.Split(list, ",") {
		if p := strings.TrimRight(strings.TrimSpace(part), "/"); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// call runs one control-plane exchange with the member at base: in (when
// non-nil) is sent as the JSON body, a 200 answer is decoded into out (when
// non-nil), and anything else is an error carrying the answer's text.
func call(ctx context.Context, hc *http.Client, method, base, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(base, "/")+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		text, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s answered HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(text)))
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode %s answer: %w", path, err)
	}
	return nil
}

// ProbeHealthz counts any transport error or non-200 answer as a miss: a
// draining daemon (503) is going away and a degraded one still answers
// 200, so the probe tracks exactly "can this primary serve". A miss names
// the member probed. A nil hc uses the watchdog's default probe client.
func ProbeHealthz(ctx context.Context, hc *http.Client, base string) error {
	if hc == nil {
		hc = probeClient
	}
	if err := call(ctx, hc, http.MethodGet, base, "/v1/healthz", nil, nil); err != nil {
		return fmt.Errorf("%s: %w", base, err)
	}
	return nil
}

// FetchStatus GETs one member's replication status.
func FetchStatus(ctx context.Context, hc *http.Client, base string) (ReplicationStatus, error) {
	var rs ReplicationStatus
	err := call(ctx, hc, http.MethodGet, base, "/v1/replication/status", nil, &rs)
	return rs, err
}

// PostVote asks one member for its promotion vote. A denial is an answer,
// not an error.
func PostVote(ctx context.Context, hc *http.Client, base string, req VoteRequest) (VoteResponse, error) {
	var out VoteResponse
	err := call(ctx, hc, http.MethodPost, base, "/v1/replication/vote", req, &out)
	return out, err
}

// PostPromote asks the member at base to promote itself — which, on a
// member that has peers, means winning its own vote round first — and
// returns the epoch it now serves. A refusal (409) comes back as an error
// carrying the Refusal body's text.
func PostPromote(ctx context.Context, hc *http.Client, base string) (uint64, error) {
	var pr PromoteJSON
	err := call(ctx, hc, http.MethodPost, base, "/v1/replication/promote", nil, &pr)
	return pr.Epoch, err
}
