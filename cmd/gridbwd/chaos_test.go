package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridbw/internal/chaosnet"
	"gridbw/internal/check"
	"gridbw/internal/faults"
	"gridbw/internal/rng"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// The chaos matrix: a 3-node quorum group (primary + two followers) runs
// its real wire protocol through TCP chaos proxies while seeded disk
// faults hit one node's WAL, the primary is killed, and a follower is
// promoted. Across all 25 (network × disk) schedules the client-history
// checker must find zero violations: no admission acked "replicated" may
// be missing from the survivor, no idempotency key may admit twice, no
// epoch may run backwards, and the survivor's booked grants must respect
// every capacity.
//
// Network modes hit follower f1's replication link; disk modes hit f1's
// WAL — except mode 3, which injects an fsync failure on the PRIMARY'S
// WAL mid-run and additionally demands the fail-stop contract: once
// poisoned, the primary never again answers a durable submission with
// "replicated" until restart. Follower f2 stays healthy and is the
// promotion target, mirroring a real operator promoting the most
// caught-up replica.

const (
	netHealthy = iota
	netFullCut
	netAsymCut // replies from the primary are dropped; requests still land
	netSlow    // latency + seeded jitter
	netResets  // seeded RSTs on new connections plus a mid-run break
)

const (
	diskHealthy = iota
	diskF1Fsync
	diskF1ShortWrite
	diskPrimaryFsync
	diskF1ENOSPC
)

func hostPort(tsURL string) string { return strings.TrimPrefix(tsURL, "http://") }

func TestChaosMatrixZeroDurableLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	src := rng.New(20250809).Split("chaosmatrix")
	for cycle := 0; cycle < 25; cycle++ {
		netMode, diskMode := cycle%5, cycle/5
		t.Run(fmt.Sprintf("net%d_disk%d", netMode, diskMode), func(t *testing.T) {
			runChaosCycle(t, cycle, netMode, diskMode, int64(src.Intn(1<<30)), 2+src.Intn(4))
		})
	}
}

func runChaosCycle(t *testing.T, cycle, netMode, diskMode int, seed int64, submits int) {
	// Primary, its WAL behind a fault-injecting FS (only scripted faults
	// fire; nothing is armed probabilistically so each schedule is exact).
	pfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: seed})
	pwal, _, err := wal.Open(t.TempDir(), wal.Options{FS: pfs})
	if err != nil {
		t.Fatal(err)
	}
	pbc := walBootConfig(pwal)
	pbc.base.ReplID = "p"
	pbc.base.SyncMode = "quorum"
	pbc.base.SyncAcks = 1
	pbc.base.SyncTimeout = 8 * time.Second
	primary, _, err := bootServer(pbc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(primary.Handler())

	// The chaos topology: one proxy per (src, dst) pair that matters —
	// each follower's pull link and the client's submission link all run
	// through real TCP proxies, so every fault below happens on the wire.
	links := chaosnet.NewSet()
	defer links.Close()
	target := hostPort(ts.URL)
	linkF1, err := links.Add("p->f1", "127.0.0.1:0", target, seed)
	if err != nil {
		t.Fatal(err)
	}
	linkF2, err := links.Add("p->f2", "127.0.0.1:0", target, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	linkClient, err := links.Add("client->p", "127.0.0.1:0", target, seed+2)
	if err != nil {
		t.Fatal(err)
	}

	f1fs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: seed})
	f1wal, _, err := wal.Open(t.TempDir(), wal.Options{FS: f1fs})
	if err != nil {
		t.Fatal(err)
	}
	f1bc := walBootConfig(f1wal)
	f1bc.follow = linkF1.URL()
	f1bc.base.ReplID = "f1"
	f1, _, err := bootServer(f1bc)
	if err != nil {
		t.Fatal(err)
	}

	f2wal, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f2bc := walBootConfig(f2wal)
	f2bc.follow = linkF2.URL()
	f2bc.base.ReplID = "f2"
	f2, _, err := bootServer(f2bc)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		f2.Close()
		f2wal.Close()
		f1.Close()
		f1wal.Close()
	}()

	rec := check.NewRecorder()
	cl := client.NewWithOptions(linkClient.URL(), nil,
		client.Options{CallTimeout: 15 * time.Second, MaxRetries: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	submitDurable := func(i int) (wire.ReservationJSON, string, error) {
		key := fmt.Sprintf("chaos-%d-%d", cycle, i)
		res, err := cl.Submit(ctx, wire.SubmitRequest{
			From: i % 2, To: (i + 1) % 2,
			VolumeBytes: float64(5 * units.GB), DeadlineS: 40000,
			MaxRateBps:     float64(50 * units.MBps),
			IdempotencyKey: key, Durable: true,
		})
		op := check.Op{
			Node: "p", Kind: check.OpSubmit, Key: key,
			Ingress: i % 2, Egress: (i + 1) % 2,
			VolumeB: float64(5 * units.GB), Durable: true,
		}
		if err != nil {
			op.Err = err.Error()
		} else {
			op.ID, op.Accepted, op.Durability = res.ID, res.Accepted, res.Durability
			op.RateBps, op.SigmaS, op.TauS = res.RateBps, res.SigmaS, res.TauS
		}
		rec.Record(op)
		return res, key, err
	}

	// killPrimary is the crash: the replication links are severed first
	// (RSTing the parked long-poll pulls, so the listener is not kept
	// draining them), then listener, process and disk go away together.
	killPrimary := func() {
		for _, name := range []string{"p->f1", "p->f2"} {
			if l, err := links.Get(name); err == nil {
				l.SetRules(chaosnet.Rules{RefuseNew: true})
				l.BreakExisting()
			}
		}
		ts.Close()
		primary.Close()
		pwal.Close()
	}

	accepted := 0
	poisonedAt := -1
	for i := 0; i < submits; i++ {
		if i == 1 {
			// The chaos arrives after the first decision has replicated, so
			// every schedule has both a clean and a perturbed phase.
			switch netMode {
			case netFullCut:
				linkF1.SetRules(chaosnet.Rules{CutToTarget: true, CutToClient: true})
				linkF1.BreakExisting()
			case netAsymCut:
				linkF1.SetRules(chaosnet.Rules{CutToClient: true})
				linkF1.BreakExisting()
			case netSlow:
				linkF1.SetRules(chaosnet.Rules{Latency: 15 * time.Millisecond, Jitter: 15 * time.Millisecond})
			case netResets:
				linkF1.SetRules(chaosnet.Rules{ResetProb: 0.5})
				linkF1.BreakExisting()
			}
			switch diskMode {
			case diskF1Fsync:
				f1fs.FailNextFsyncs(1)
			case diskF1ShortWrite:
				f1fs.ShortNextWrite(3)
			case diskF1ENOSPC:
				f1fs.FailNextENOSPC(1)
			case diskPrimaryFsync:
				pfs.FailNextFsyncs(1)
				poisonedAt = i
			}
		}
		res, _, err := submitDurable(i)
		if err == nil && res.Accepted {
			accepted++
			if poisonedAt >= 0 && i >= poisonedAt && res.Durability == wire.DurabilityReplicated {
				t.Fatalf("cycle %d: submit %d acked replicated after the primary's fsync fault", cycle, i)
			}
		}
	}

	if diskMode == diskPrimaryFsync {
		// Fail-stop: the fault poisoned the WAL on its first append, so the
		// primary must be refusing durable work by now — and keep refusing
		// it, with no way back short of a restart.
		if !primary.WALPoisoned() {
			t.Fatalf("cycle %d: primary WAL not poisoned after injected fsync failure", cycle)
		}
		if res, _, err := submitDurable(submits); err == nil && res.Accepted {
			t.Fatalf("cycle %d: durable submission admitted on a poisoned primary: %+v", cycle, res)
		}
	} else {
		// The mid-flight kill: one more durable submission races the crash.
		// Its response, if the client reads one, is a durability promise the
		// promoted follower must honor.
		type outcome struct {
			res wire.ReservationJSON
			err error
		}
		inflight := make(chan outcome, 1)
		go func() {
			res, _, err := submitDurable(submits)
			inflight <- outcome{res, err}
		}()
		waitApplied(t, f2, uint64(accepted+1))
		// The follower holds the frame; wait until its piggybacked ack
		// cursor has reached the primary too, so severing the links cannot
		// park the in-flight waiter for the whole sync timeout.
		end := pwal.End()
		ackDeadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(ackDeadline) {
			if ack, ok := primary.FollowerAcks()["f2"]; ok && !ack.Pos.Less(end) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		killPrimary()
		if last := <-inflight; last.err == nil && last.res.Accepted {
			accepted++
		}
	}
	if diskMode == diskPrimaryFsync {
		waitApplied(t, f2, uint64(accepted))
		killPrimary()
	}

	// Promotion: f2 is the most caught-up healthy replica. Its epoch must
	// move forward, never back.
	rec.Record(check.Op{Node: "f2", Kind: check.OpStatus, Epoch: f2.Status().Epoch})
	epoch, err := f2.Promote()
	if err != nil {
		t.Fatalf("cycle %d promote: %v", cycle, err)
	}
	rec.Record(check.Op{Node: "f2", Kind: check.OpStatus, Epoch: epoch})

	// The verdict: replay the survivor's WAL and hand everything the
	// client observed to the invariant checker.
	events, _, err := server.ReadWALEvents(f2wal, wal.Pos{})
	if err != nil {
		t.Fatalf("cycle %d: read survivor WAL: %v", cycle, err)
	}
	caps := []float64{float64(1 * units.GBps), float64(1 * units.GBps)}
	violations := check.Verify(rec.Ops(), check.Final{
		Events: events, IngressBps: caps, EgressBps: caps,
	})
	for _, v := range violations {
		t.Errorf("cycle %d: %s", cycle, v)
	}
	if err := f2.VerifyInvariant(); err != nil {
		t.Fatalf("cycle %d: survivor ledger: %v", cycle, err)
	}
}

func waitApplied(t *testing.T, f *server.Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if f.ReplicationStatus().Applied >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower applied %d, want >= %d", f.ReplicationStatus().Applied, want)
}
