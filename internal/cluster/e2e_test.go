package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

func e2eConfig() server.Config {
	return server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
	}
}

func e2eWAL(t *testing.T, segBytes int64) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// e2eEpochWAL is an e2eWAL whose directory records the fencing epoch: a
// server booted over it resumes that lineage.
func e2eEpochWAL(t *testing.T, epoch uint64) *wal.Log {
	t.Helper()
	l := e2eWAL(t, 1<<20)
	if err := l.SaveEpoch(epoch); err != nil {
		t.Fatal(err)
	}
	return l
}

func e2eWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSelfDrivingFailover is the acceptance scenario end to end: a primary
// dies mid-load with a watchdog running, the standby auto-promotes under a
// bumped epoch, the multi-endpoint client's retried submit (same
// idempotency key) lands exactly once on the new primary, a batch from the
// deposed lineage is fenced, and a follower whose cursor was compacted
// away re-seeds itself from the snapshot endpoint and catches up with
// every acked reservation intact.
func TestSelfDrivingFailover(t *testing.T) {
	ctx := context.Background()

	// Primary and warm standby, both WAL-backed with tiny segments so the
	// standby's log rotates and can later be compacted under follower2.
	pcfg := e2eConfig()
	pcfg.WAL = e2eWAL(t, 512)
	primary, err := server.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	scfg := e2eConfig()
	swal := e2eWAL(t, 512)
	scfg.WAL = swal
	scfg.Follow = pts.URL
	standby, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	if err := standby.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(standby.Handler())
	defer sts.Close()

	// The failover-aware client knows both endpoints from the start.
	c := client.NewWithOptions(pts.URL, nil, client.Options{
		MaxRetries:  6,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	}, sts.URL)
	if c.Endpoint() != pts.URL {
		t.Fatalf("client starts on %s, want the primary %s", c.Endpoint(), pts.URL)
	}

	// Load: a dozen acked reservations, each under its own idempotency key.
	var acked []int
	for i := 0; i < 12; i++ {
		r, err := c.Submit(ctx, wire.SubmitRequest{
			From: i % 2, To: (i + 1) % 2,
			VolumeBytes: 2e9, DeadlineS: 3600, MaxRateBps: 50e6,
			IdempotencyKey: fmt.Sprintf("load-%d", i),
		})
		if err != nil {
			t.Fatalf("load submit %d: %v", i, err)
		}
		if !r.Accepted {
			t.Fatalf("load submit %d rejected: %+v", i, r)
		}
		acked = append(acked, r.ID)
	}

	// The watchdog must not promote a standby missing acked history, so
	// wait for catch-up before pulling the plug (lag 0 also means the lag
	// sanity check cannot hold promotion below).
	e2eWait(t, "standby catch-up", func() bool {
		rs := standby.ReplicationStatus()
		return rs.Applied >= uint64(len(acked)) && rs.LagBytes == 0
	})

	// The watchdog, over real HTTP, exactly as `gridbwd -watch` wires it.
	wd, err := cluster.New(cluster.Config{
		Primary: pts.URL, Standby: sts.URL,
		Interval: 10 * time.Millisecond, Misses: 2, MaxLagBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	wdDone := make(chan error, 1)
	go func() { wdDone <- wd.Run(ctx) }()

	// Kill the primary mid-load.
	pts.Close()
	primary.Close()

	e2eWait(t, "watchdog promotion", func() bool {
		return standby.Epoch() == 2 && !standby.Following()
	})
	if err := <-wdDone; err != nil {
		t.Fatalf("watchdog Run returned %v after promoting", err)
	}
	if st := wd.Status(); st.State != cluster.StatePrimary.String() || st.Epoch != 2 {
		t.Fatalf("watchdog status after failover: %+v, want primary at epoch 2", st)
	}

	// The client's next submit re-discovers the primary and lands exactly
	// once: re-sending the same idempotency key answers the same ID.
	before := standby.Status().Active
	first, err := c.Submit(ctx, wire.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 3600, MaxRateBps: 50e6,
		IdempotencyKey: "failover-submit",
	})
	if err != nil {
		t.Fatalf("post-failover submit: %v", err)
	}
	if !first.Accepted {
		t.Fatalf("post-failover submit rejected: %+v", first)
	}
	if c.Endpoint() != sts.URL {
		t.Fatalf("client endpoint after failover = %s, want the standby %s", c.Endpoint(), sts.URL)
	}
	retry, err := c.Submit(ctx, wire.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 3600, MaxRateBps: 50e6,
		IdempotencyKey: "failover-submit",
	})
	if err != nil || retry.ID != first.ID {
		t.Fatalf("idempotent re-send: id %d err %v, want id %d", retry.ID, err, first.ID)
	}
	if got := standby.Status().Active; got != before+1 {
		t.Fatalf("active went %d -> %d across two same-key submits, want exactly one admission", before, got)
	}
	acked = append(acked, first.ID)

	// A key the dead primary decided is exactly-once on the promoted standby
	// too: the shipped accept carried it.
	before = standby.Status().Active
	resent, err := c.Submit(ctx, wire.SubmitRequest{
		From: 3 % 2, To: (3 + 1) % 2,
		VolumeBytes: 2e9, DeadlineS: 3600, MaxRateBps: 50e6,
		IdempotencyKey: "load-3",
	})
	if err != nil || resent.ID != acked[3] {
		t.Fatalf("re-send of pre-failover key load-3: id %d err %v, want its original id %d", resent.ID, err, acked[3])
	}
	if got := standby.Status().Active; got != before {
		t.Fatalf("active went %d -> %d on a re-send of a pre-failover key, want no admission", before, got)
	}

	// Compact the new primary's WAL down to its live tail: any follower
	// starting from scratch now finds its cursor gone (410) and must
	// re-seed from the snapshot endpoint.
	dropped, err := swal.CompactBefore(swal.End())
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("WAL never rotated — shrink SegmentBytes so compaction has segments to drop")
	}

	f2cfg := e2eConfig()
	f2cfg.WAL = e2eWAL(t, 512)
	f2cfg.Follow = sts.URL
	follower2, err := server.New(f2cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower2.Close()
	if err := follower2.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	e2eWait(t, "follower2 reseed and catch-up", func() bool {
		st := follower2.Status()
		return st.Stats.Reseeds >= 1 && st.Active == standby.Status().Active &&
			follower2.ReplicationStatus().LagBytes == 0
	})
	if got := follower2.Epoch(); got != 2 {
		t.Fatalf("follower2 epoch after reseed = %d, want 2", got)
	}

	// Zero lost acked reservations: every ID the client was ever acked for
	// is live on both the promoted standby and the re-seeded follower.
	for _, id := range acked {
		for name, srv := range map[string]*server.Server{"standby": standby, "follower2": follower2} {
			d, err := srv.Lookup(request.ID(id))
			if err != nil {
				t.Fatalf("%s lost acked reservation %d: %v", name, id, err)
			}
			if !d.Accepted {
				t.Fatalf("%s: reservation %d no longer accepted: %+v", name, id, d)
			}
		}
	}

	// The deposed primary's late batch: epoch 1 against the new lineage's
	// epoch 2 is fenced at every replica, no matter its cursor.
	err = follower2.ApplyShipped(cluster.ShippedBatch{Epoch: 1})
	var fenced *server.FencedError
	if !errors.As(err, &fenced) {
		t.Fatalf("deposed-epoch batch: err = %v, want FencedError", err)
	}
	if err := standby.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := follower2.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}
