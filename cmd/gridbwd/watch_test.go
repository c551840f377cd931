package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
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

// TestWatchedFailoverSmoke is the three-process smoke in one process,
// using exactly the production wiring: a primary, a standby running the
// same in-process watchdog `-watch` installs, and a multi-endpoint
// client. Kill the primary; the client's next submit must land on the
// auto-promoted standby.
func TestWatchedFailoverSmoke(t *testing.T) {
	pwal, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pwal.Close() })
	primary, _, err := bootServer(walBootConfig(pwal))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	fwal, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fwal.Close() })
	fbc := walBootConfig(fwal)
	fbc.follow = pts.URL
	standby, how, err := bootServer(fbc)
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	if !strings.Contains(how, "following") {
		t.Fatalf("standby boot path = %q, want a following boot", how)
	}
	sts := httptest.NewServer(standby.Handler())
	defer sts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wd, err := newInProcessWatchdog(standby, pts.URL, cluster.Config{
		Interval: 10 * time.Millisecond, Misses: 2, MaxLagBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	go wd.Run(ctx)

	c := client.NewWithOptions(pts.URL, nil, client.Options{
		MaxRetries: 6, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond,
	}, sts.URL)
	for i := 0; i < 4; i++ {
		r, err := c.Submit(ctx, wire.SubmitRequest{
			From: i % 2, To: (i + 1) % 2,
			VolumeBytes: float64(5 * units.GB), DeadlineS: 40000, MaxRateBps: float64(50 * units.MBps),
		})
		if err != nil || !r.Accepted {
			t.Fatalf("load submit %d: %v %+v", i, err, r)
		}
	}
	waitUntil(t, "standby catch-up", func() bool {
		rs := standby.ReplicationStatus()
		return rs.Applied >= 4 && rs.LagBytes == 0
	})

	pts.Close()
	primary.Close()

	waitUntil(t, "self-promotion", func() bool {
		return standby.Epoch() == 2 && !standby.Following()
	})

	r, err := c.Submit(ctx, wire.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 1e9, DeadlineS: 40000, MaxRateBps: 50e6,
		IdempotencyKey: "smoke-after-kill",
	})
	if err != nil || !r.Accepted {
		t.Fatalf("post-kill submit: %v %+v", err, r)
	}
	if c.Endpoint() != sts.URL {
		t.Fatalf("client endpoint = %s, want the promoted standby %s", c.Endpoint(), sts.URL)
	}

	// The watchdog's terminal state is on the standby's metrics page.
	page, err := c.Metricsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, `gridbwd_watchdog_state{state="primary"} 1`) {
		t.Fatalf("metricsz missing promoted watchdog state:\n%s", page)
	}
}

// TestBootFollowerFromReseedSnapshot pins the reboot path of a re-seeded
// follower: the checkpoint the re-seed persisted in its WAL directory (not
// a full local-WAL replay, which would misread the compacted gap) restores
// the state, and the follower keeps following.
func TestBootFollowerFromReseedSnapshot(t *testing.T) {
	pwal, _, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pwal.Close() })
	primary, _, err := bootServer(walBootConfig(pwal))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()
	for i := 0; i < 6; i++ {
		d, err := primary.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2,
			Volume: 1 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("seed submit %d: %v %+v", i, err, d)
		}
	}
	if dropped, err := pwal.CompactBefore(pwal.End()); err != nil || dropped == 0 {
		t.Fatalf("compaction dropped %d segments (%v), want > 0", dropped, err)
	}

	// First follower life: the zero cursor is compacted away, so the
	// stream re-seeds it with a checkpoint, which it persists in its WAL
	// directory.
	fdir := t.TempDir()
	fwal, _, err := wal.Open(fdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fbc := walBootConfig(fwal)
	fbc.follow = pts.URL
	follower, _, err := bootServer(fbc)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "auto-reseed", func() bool {
		st := follower.Status()
		return st.Stats.Reseeds == 1 && st.Active == primary.Status().Active
	})
	wantActive := follower.Status().Active
	follower.Close()
	fwal.Close()

	// Second life: reboot from the same directory. The boot must install
	// the checkpoint, restore the state, and resume following.
	fwal2, _, err := wal.Open(fdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fwal2.Close() })
	fbc2 := walBootConfig(fwal2)
	fbc2.follow = pts.URL
	follower2, how, err := bootServer(fbc2)
	if err != nil {
		t.Fatal(err)
	}
	defer follower2.Close()
	if !strings.Contains(how, "restored checkpoint") {
		t.Fatalf("reboot path = %q, want the checkpoint restore", how)
	}
	if got := follower2.Status().Active; got != wantActive {
		t.Fatalf("active after reboot = %d, want %d", got, wantActive)
	}

	// Still live: a fresh decision on the primary reaches the rebooted
	// follower.
	d, err := primary.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps})
	if err != nil || !d.Accepted {
		t.Fatalf("post-reboot submit: %v %+v", err, d)
	}
	waitUntil(t, "post-reboot catch-up", func() bool {
		return follower2.Status().Active == primary.Status().Active
	})
	if err := follower2.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}
