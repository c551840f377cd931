package cluster

import (
	"context"
	"fmt"
	"net/http"
)

// Answer is one member's reply to a status sweep.
type Answer struct {
	URL    string
	Status ReplicationStatus
}

// Answers is what one sweep of a member list learned: the replies that
// arrived, in arrival order. Members that failed to answer are absent.
type Answers []Answer

// Survey asks every member for its replication status concurrently. It
// returns early once a strict majority of the members have answered AND
// the best primary seen is at the answered group's maximum epoch: a
// majority of live answers none of which out-epochs that primary means no
// fenced claimant can be hiding a newer lineage among them, while a fast
// answer from a deposed primary alone proves nothing — the slower,
// higher-epoch winner must still be waited for. Errors never count toward
// the majority (a refused dial says nothing about the group), so at worst
// the sweep drains every member under ctx and hc's timeout instead of
// settling on a stale lineage.
func Survey(ctx context.Context, hc *http.Client, members []string) Answers {
	type reply struct {
		Answer
		err error
	}
	ch := make(chan reply, len(members))
	for _, m := range members {
		go func(base string) {
			rs, err := FetchStatus(ctx, hc, base)
			ch <- reply{Answer{base, rs}, err}
		}(m)
	}
	var got Answers
	var maxEpoch uint64
	for range members {
		r := <-ch
		if r.err != nil {
			continue
		}
		got = append(got, r.Answer)
		maxEpoch = max(maxEpoch, r.Status.Epoch)
		if _, epoch, ok := got.Primary(0); ok && epoch >= maxEpoch && len(got) >= Majority(len(members)) {
			break
		}
	}
	return got
}

// Primary picks the epoch-dominant primary: among the members that answered
// as primary at or past the floor epoch, the one with the highest epoch —
// during a partition both sides may claim the role, and the higher epoch is
// the lineage whose writes are not fenced off. A follower passes its own
// epoch as the floor, so a lineage it has already out-epoched is never
// picked; everyone else passes 0.
func (a Answers) Primary(floor uint64) (url string, epoch uint64, ok bool) {
	for _, m := range a {
		if m.Status.Role == "primary" && m.Status.Epoch >= floor && (!ok || m.Status.Epoch > epoch) {
			url, epoch, ok = m.URL, m.Status.Epoch, true
		}
	}
	return url, epoch, ok
}

// Follower picks the most caught-up follower that answered — the member
// whose promotion would discard the least history.
func (a Answers) Follower() (url string, ok bool) {
	var best Answer
	for _, m := range a {
		if m.Status.Role == "follower" && (!ok || best.Status.Cursor.Less(m.Status.Cursor)) {
			best, ok = m, true
		}
	}
	return best.URL, ok
}

// Roles picks the pair a watchdog guards: the epoch-dominant primary to
// probe and the most caught-up follower to promote when it dies.
func (a Answers) Roles() (primary, standby string, err error) {
	primary, _, ok := a.Primary(0)
	if !ok {
		return "", "", fmt.Errorf("no primary among the %d members that answered", len(a))
	}
	standby, ok = a.Follower()
	if !ok {
		return "", "", fmt.Errorf("no follower to guard among the %d members that answered", len(a))
	}
	return primary, standby, nil
}
