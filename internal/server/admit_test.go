package server

import (
	"testing"
	"time"

	"gridbw/internal/alloc"
	"gridbw/internal/request"
	"gridbw/internal/units"
)

// TestStalePhaseTwoStartIsRaisedToTheFloor: phase 2 of a batch decides with
// phase 1's now, which another call's expiry or cancel may have overtaken
// while the item waited for its pair locks. admitTx decides no earlier than
// the pair's floor: a window that ended behind it is refused instead of
// granted over a span the profiles no longer hold, and a flexible request
// starts at the floor.
func TestStalePhaseTwoStartIsRaisedToTheFloor(t *testing.T) {
	s, err := New(Config{
		Ingress: []units.Bandwidth{units.GBps}, Egress: []units.Bandwidth{units.GBps},
		Policy: "f=1", Clock: func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var tx alloc.PairTx
	s.ledger().LockPair(&tx, 0, 0)
	defer tx.Unlock()
	tx.Egress().TrimBefore(100) // what another call's cancel at 100 s leaves
	past := &batchItem{r: request.Request{ID: 1, Start: 10, Finish: 50, Volume: 10 * units.GB, MaxRate: units.GBps}}
	s.admitTx(&tx, past)
	if past.accepted {
		t.Errorf("a window that ended at 50 s behind the floor at 100 s was granted %+v", past.g)
	}
	flex := &batchItem{r: request.Request{ID: 2, Start: 90, Finish: 1000, Volume: 10 * units.GB, MaxRate: units.GBps}}
	s.admitTx(&tx, flex)
	if !flex.accepted || flex.g.Sigma != 100 || flex.r.Start != 100 {
		t.Errorf("stale start 90 against the floor at 100: accepted %v, σ %v, start %v; want a grant at 100", flex.accepted, flex.g.Sigma, flex.r.Start)
	}
}
