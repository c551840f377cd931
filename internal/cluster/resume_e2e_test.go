package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/request"
	"gridbw/internal/server"
)

// swapHandler lets one stable URL change identity mid-test: the slot a
// daemon occupies survives the daemon, exactly like a restarted process
// re-binding its address.
type swapHandler struct{ h atomic.Value }

func newSwapHandler(h http.Handler) *swapHandler {
	s := &swapHandler{}
	s.h.Store(h)
	return s
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

var downHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "daemon down", http.StatusServiceUnavailable)
})

// TestWatchdogResumeSurvivesSuccessiveFailovers: one long-running watchdog
// in resume mode guards a 3-node group through TWO failovers. After the
// first promotion it re-arms against the rediscovered group — new primary
// as probe target, most caught-up follower as next candidate — instead of
// returning, so when the promoted primary dies too the group fails over
// again under a majority vote, and every acked reservation survives both
// hops. Only context cancellation ends the run.
func TestWatchdogResumeSurvivesSuccessiveFailovers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Node A: the founding primary.
	acfg := e2eConfig()
	acfg.WAL = e2eWAL(t, 1<<20)
	acfg.ReplID = "node-a"
	a, err := server.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	aSlot := newSwapHandler(a.Handler())
	ats := httptest.NewServer(aSlot)
	defer ats.Close()

	// Nodes B and C: followers of A. Each member's peers — its vote set —
	// are the other two slots, which exist before the daemons do.
	bSlot, cSlot := newSwapHandler(downHandler), newSwapHandler(downHandler)
	bts := httptest.NewServer(bSlot)
	defer bts.Close()
	cts := httptest.NewServer(cSlot)
	defer cts.Close()
	mkFollower := func(id, source string, epoch uint64, peers ...string) *server.Server {
		cfg := e2eConfig()
		cfg.WAL = e2eEpochWAL(t, max(epoch, 1))
		cfg.ReplID = id
		cfg.Follow = source
		cfg.Peers = peers
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.StartFollowing(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	b := mkFollower("node-b", ats.URL, 0, ats.URL, cts.URL)
	defer b.Close()
	bSlot.h.Store(b.Handler())

	c := mkFollower("node-c", ats.URL, 0, ats.URL, bts.URL)
	cSlot.h.Store(c.Handler())

	// Acked load on the founding primary; both followers must hold it
	// before any failover is allowed to begin.
	var acked []request.ID
	for i := 0; i < 8; i++ {
		d, err := a.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2, Volume: 2e9, Deadline: 3600, MaxRate: 50e6,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("load %d: %+v, %v", i, d, err)
		}
		acked = append(acked, d.ID)
	}
	for _, f := range []*server.Server{b, c} {
		f := f
		e2eWait(t, "follower catch-up", func() bool {
			rs := f.ReplicationStatus()
			return rs.Applied >= uint64(len(acked)) && rs.LagBytes == 0
		})
	}

	// One watchdog for the whole group: B is the first candidate — A and C
	// are its peers (G=3, one peer grant completes the majority) — and
	// resume mode re-arms after every completed failover.
	endpoints := []string{ats.URL, bts.URL, cts.URL}
	wd, err := cluster.New(cluster.Config{
		Primary: ats.URL, Standby: bts.URL,
		Resume: true, Endpoints: endpoints,
		Interval: 10 * time.Millisecond, Misses: 2, MaxLagBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	wdDone := make(chan error, 1)
	go func() { wdDone <- wd.Run(ctx) }()

	// Failover 1: kill A. C (follower, same lineage, caught up) grants the
	// vote; B promotes to epoch 2.
	aSlot.h.Store(downHandler)
	a.Close()
	e2eWait(t, "first promotion", func() bool {
		return b.Epoch() == 2 && !b.Following()
	})
	select {
	case err := <-wdDone:
		t.Fatalf("watchdog Run returned (%v) after the first failover despite resume mode", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The group heals around the new primary: fresh followers of B take
	// over the A and C slots (a restarted daemon re-pointed at the new
	// primary), so a future election can still find a majority.
	c2 := mkFollower("node-c", bts.URL, 2, ats.URL, bts.URL)
	defer c2.Close()
	cSlot.h.Store(c2.Handler())
	c.Close()
	a2 := mkFollower("node-a", bts.URL, 2, bts.URL, cts.URL)
	defer a2.Close()
	aSlot.h.Store(a2.Handler())
	for _, f := range []*server.Server{a2, c2} {
		f := f
		e2eWait(t, "healed follower catch-up", func() bool {
			rs := f.ReplicationStatus()
			return rs.Applied >= uint64(len(acked)) && rs.LagBytes == 0
		})
	}

	// Failover 2: the promoted primary dies too. The re-armed watchdog
	// probes B now; the A-slot follower grants the vote for the C-slot
	// candidate (2 of 3 again) and the group reaches epoch 3.
	bSlot.h.Store(downHandler)
	b.Close()
	e2eWait(t, "second promotion", func() bool {
		return (c2.Epoch() == 3 && !c2.Following()) || (a2.Epoch() == 3 && !a2.Following())
	})
	var survivor *server.Server
	if !c2.Following() {
		survivor = c2
	} else {
		survivor = a2
	}
	// The server flips to epoch 3 before the watchdog decodes the promote
	// response, so poll rather than assert instantly.
	e2eWait(t, "watchdog to record epoch 3", func() bool {
		return wd.Status().Epoch == 3
	})

	// Zero acked loss across both hops.
	for _, id := range acked {
		d, err := survivor.Lookup(id)
		if err != nil || !d.Accepted {
			t.Fatalf("reservation %d lost across two failovers: %+v, %v", id, d, err)
		}
	}
	// Both deposed lineages are fenced on any replica of the new one.
	rcfg := e2eConfig()
	rcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	rcfg.WAL = e2eEpochWAL(t, 3)
	replica, err := server.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	for _, epoch := range []uint64{1, 2} {
		err := replica.ApplyShipped(cluster.ShippedBatch{Epoch: epoch})
		var fenced *server.FencedError
		if !errors.As(err, &fenced) {
			t.Fatalf("epoch-%d batch on the new lineage: err = %v, want FencedError", epoch, err)
		}
	}

	// Only cancellation ends a resume-mode run.
	cancel()
	if err := <-wdDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
}
