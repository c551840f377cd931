package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/faults"
	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// The crash-restart property these tests pin down: whatever byte the
// kernel got to before the crash, recovery replays an exact prefix of the
// decision history — no accepted reservation past its fsync point is
// lost, no reservation is booked twice, and the ledger passes the
// capacity invariant.

func walBootConfig(l *wal.Log) server.Config {
	return server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Policy:  "minbw",
		WAL:     l,
	}
}

// seedWAL runs a primary against a fresh WAL in dir, books accepts and
// cancels, and returns the full event history it logged.
func seedWAL(t *testing.T, dir string, accepts, cancels int, segBytes int64) []trace.Event {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	bc := walBootConfig(l)
	srv, err := server.New(bc)
	if err != nil {
		t.Fatal(err)
	}
	var ids []request.ID
	for i := 0; i < accepts; i++ {
		d, err := srv.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2,
			Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("seed submit %d: %v %+v", i, err, d)
		}
		ids = append(ids, d.ID)
	}
	for i := 0; i < cancels; i++ {
		if _, err := srv.Cancel(ids[i*2]); err != nil {
			t.Fatalf("seed cancel: %v", err)
		}
	}
	srv.Close()
	events, _, err := server.ReadWALEvents(l, wal.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return events
}

// truncateWALCopy clones the segments of src into a fresh directory and
// cuts the clone at global byte offset cut — the prefix of the append
// stream a crash left on disk. Segments wholly past the cut are dropped,
// as a sequential appender could never have written them.
func truncateWALCopy(t *testing.T, src string, cut int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var pos int64
	for _, name := range names {
		if cut <= pos {
			break
		}
		blob, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		n := int64(len(blob))
		if cut < pos+n {
			blob = blob[:cut-pos]
		}
		if err := os.WriteFile(filepath.Join(dst, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		pos += n
	}
	return dst
}

// liveAfter replays an event prefix by hand — the oracle the recovered
// ledger must match.
func liveAfter(events []trace.Event) map[int]bool {
	live := make(map[int]bool)
	for _, ev := range events {
		switch ev.Kind {
		case trace.EventAccept:
			live[ev.Request] = true
		case trace.EventCancel, trace.EventExpire:
			delete(live, ev.Request)
		}
	}
	return live
}

// checkRecovery boots from the truncated WAL copy and verifies the
// recovered daemon: its surviving events are an exact prefix of the
// original history, its live set matches the oracle replay of that
// prefix, the capacity invariant holds, and it still admits new work.
func checkRecovery(t *testing.T, dir string, oracle []trace.Event, segBytes int64) {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	survivors, _, err := server.ReadWALEvents(l, wal.Pos{})
	if err != nil {
		t.Fatalf("read survivors: %v", err)
	}
	if len(survivors) > len(oracle) {
		t.Fatalf("recovered %d events from a log of %d", len(survivors), len(oracle))
	}
	for i, ev := range survivors {
		if ev != oracle[i] {
			t.Fatalf("survivor %d = %+v, want prefix event %+v", i, ev, oracle[i])
		}
	}

	srv, how, err := startRoute(walBootConfig(l))
	if err != nil {
		t.Fatalf("boot after crash (%d survivors): %v", len(survivors), err)
	}
	defer srv.Close()
	if len(survivors) > 0 && !strings.Contains(how, "WAL") {
		t.Errorf("recovery path = %q, want WAL replay", how)
	}
	want := liveAfter(survivors)
	got := srv.LiveReservations()
	if len(got) != len(want) {
		t.Fatalf("after %d survivors: %d live reservations, want %d", len(survivors), len(got), len(want))
	}
	maxID := -1
	for _, r := range got {
		if !want[int(r.Req.ID)] {
			t.Fatalf("reservation %d live after recovery but not in the oracle prefix", r.Req.ID)
		}
		if int(r.Req.ID) > maxID {
			maxID = int(r.Req.ID)
		}
	}
	if err := srv.VerifyInvariant(); err != nil {
		t.Fatalf("after %d survivors: %v", len(survivors), err)
	}
	d, err := srv.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 40000, MaxRate: 1 * units.GBps})
	if err != nil || !d.Accepted {
		t.Fatalf("post-recovery submit: %v %+v", err, d)
	}
	if int(d.ID) <= maxID {
		t.Fatalf("post-recovery ID %d collides with replayed history (max %d)", d.ID, maxID)
	}
}

// TestCrashRestartEveryOffsetInLastFrame truncates the log at every byte
// offset inside the final frame — header bytes, CRC bytes, every payload
// byte — and demands the same answer each time: the last decision is
// gone, everything before it survives intact.
func TestCrashRestartEveryOffsetInLastFrame(t *testing.T) {
	src := t.TempDir()
	oracle := seedWAL(t, src, 5, 0, 0)
	seg := filepath.Join(src, "wal-00000001.seg")
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(blob))
	// The last frame starts where the prefix of len(oracle)-1 frames ends:
	// recover it by scanning lengths (8-byte header precedes each payload).
	var lastFrame int64
	for i, off := 0, int64(0); off < total; i++ {
		n := int64(blob[off]) | int64(blob[off+1])<<8 | int64(blob[off+2])<<16 | int64(blob[off+3])<<24
		if i == len(oracle)-1 {
			lastFrame = off
		}
		off += 8 + n
	}
	if lastFrame == 0 {
		t.Fatal("could not locate the last frame")
	}
	for cut := lastFrame; cut <= total; cut++ {
		dir := truncateWALCopy(t, src, cut)
		checkRecovery(t, dir, oracle, 0)
	}
}

// TestCrashRestartRandomOffsets drives the seeded crash-point source over
// a multi-segment log: each drawn offset simulates a kernel that got an
// arbitrary prefix of the append stream to disk before the daemon died.
func TestCrashRestartRandomOffsets(t *testing.T) {
	const segBytes = 512 // several rotations over 24 events
	src := t.TempDir()
	oracle := seedWAL(t, src, 18, 6, segBytes)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".seg") {
			total += fi.Size()
		}
	}
	crasher := faults.NewCrasher(42)
	for i := 0; i < 24; i++ {
		cut := crasher.Offset(0, total+1)
		dir := truncateWALCopy(t, src, cut)
		checkRecovery(t, dir, oracle, segBytes)
	}
}

// TestSyncAckZeroLossAcrossKillPromote is the synchronous-ack durability
// acceptance run: across 25 seeded kill/promote cycles, every Durable
// submission whose response the client received must survive on the
// promoted follower even though the primary's disk is lost whole. The
// seeded crasher varies how many decisions each cycle books before the
// kill, and the final submission of every cycle is killed mid-flight —
// after the follower's ack, before the client reads the response — the
// exact window the sync-ack parking exists to cover.
func TestSyncAckZeroLossAcrossKillPromote(t *testing.T) {
	crasher := faults.NewCrasher(1234)
	for cycle := 0; cycle < 25; cycle++ {
		killAfter := int(crasher.Offset(1, 7)) // decisions acked before the kill

		pwal, _, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pbc := walBootConfig(pwal)
		pbc.ReplID = "p"
		pbc.SyncMode = "quorum"
		pbc.SyncAcks = 1 // one follower: the whole replica set must ack
		pbc.SyncTimeout = 10 * time.Second
		primary, _, err := startRoute(pbc)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(primary.Handler())

		fwal, _, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fbc := walBootConfig(fwal)
		fbc.Follow = ts.URL
		fbc.ReplID = "f1"
		follower, _, err := startRoute(fbc)
		if err != nil {
			t.Fatal(err)
		}

		// Every returned response is a durability promise: the call parked
		// until the follower's pull cursor passed the decision's WAL frame,
		// and the follower WALs events before advancing that cursor.
		var acked []request.ID
		for i := 0; i < killAfter; i++ {
			d, err := primary.Submit(server.Submission{
				From: i % 2, To: (i + 1) % 2,
				Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
				Durable: true,
			})
			if err != nil || !d.Accepted {
				t.Fatalf("cycle %d submit %d: %v %+v", cycle, i, err, d)
			}
			acked = append(acked, d.ID)
		}
		if got := primary.Status().Stats.SyncDegraded; got != 0 {
			t.Fatalf("cycle %d: %d sync waits degraded — an ack above was not replicated", cycle, got)
		}

		// The mid-flight kill: launch one more Durable submission, wait for
		// the follower to hold it, then crash the primary before the caller
		// reads the answer.
		type outcome struct {
			d   server.Decision
			err error
		}
		inflight := make(chan outcome, 1)
		go func() {
			d, err := primary.Submit(server.Submission{
				From: 0, To: 1, Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
				Durable: true,
			})
			inflight <- outcome{d, err}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if follower.ReplicationStatus().Applied >= uint64(killAfter+1) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if got := follower.ReplicationStatus().Applied; got < uint64(killAfter+1) {
			t.Fatalf("cycle %d: follower applied %d of %d before kill", cycle, got, killAfter+1)
		}

		// The crash: listener gone, process gone, disk gone — the follower's
		// copy is all that remains of the lineage.
		ts.Close()
		primary.Close()
		pwal.Close()
		last := <-inflight
		if last.err == nil && last.d.Accepted {
			acked = append(acked, last.d.ID)
		}

		epoch, err := follower.Promote()
		if err != nil || epoch != 2 {
			t.Fatalf("cycle %d promote: epoch %d, %v", cycle, epoch, err)
		}
		for _, id := range acked {
			d, err := follower.Lookup(id)
			if err != nil || !d.Accepted {
				t.Fatalf("cycle %d: acked Durable reservation %d lost across kill/promote: %+v, %v", cycle, id, d, err)
			}
		}
		if err := follower.VerifyInvariant(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		follower.Close()
		fwal.Close()
	}
}

// TestFollowerCrashRestartAndPromotion runs the warm-standby lifecycle at
// the boot level: a follower catches up, dies, reboots from its own
// WAL and persisted cursor, catches up again, and is promoted — ending
// with the primary's exact live set and a working write path.
func TestFollowerCrashRestartAndPromotion(t *testing.T) {
	pwal, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pwal.Close()
	primary, _, err := startRoute(walBootConfig(pwal))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			d, err := primary.Submit(server.Submission{
				From: i % 2, To: (i + 1) % 2,
				Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
			})
			if err != nil || !d.Accepted {
				t.Fatalf("submit: %v %+v", err, d)
			}
		}
	}
	waitCaughtUp := func(f *server.Server, applied uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			rs := f.ReplicationStatus()
			if rs.Applied >= applied && rs.LagBytes == 0 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("follower never caught up: %+v", f.ReplicationStatus())
	}

	submit(4)
	fdir := t.TempDir()
	fwal, _, err := wal.Open(fdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fbc := walBootConfig(fwal)
	fbc.Follow = ts.URL
	follower, how, err := startRoute(fbc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(how, "following") {
		t.Fatalf("boot path = %q, want following", how)
	}
	waitCaughtUp(follower, 4)

	// Crash the standby: close it mid-stream and lose its memory.
	follower.Close()
	fwal.Close()
	submit(3) // the primary keeps deciding while the standby is down

	fwal2, rec, err := wal.Open(fdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fwal2.Close()
	if rec.Records < 4 {
		t.Fatalf("follower WAL kept %d records across the crash, want >= 4", rec.Records)
	}
	fbc2 := walBootConfig(fwal2)
	fbc2.Follow = ts.URL
	follower2, how, err := startRoute(fbc2)
	if err != nil {
		t.Fatal(err)
	}
	defer follower2.Close()
	if !strings.Contains(how, "following") || !strings.Contains(how, "replayed") {
		t.Fatalf("reboot path = %q, want following with local WAL replay", how)
	}
	waitCaughtUp(follower2, 3) // Applied counts since this process started

	pLive := primary.LiveReservations()
	fLive := follower2.LiveReservations()
	if len(fLive) != len(pLive) {
		t.Fatalf("follower holds %d live reservations, primary %d", len(fLive), len(pLive))
	}
	for i := range pLive {
		if fLive[i].Req != pLive[i].Req || fLive[i].Grant != pLive[i].Grant {
			t.Fatalf("live[%d] diverges:\n  follower %+v\n  primary  %+v", i, fLive[i], pLive[i])
		}
	}

	epoch, err := follower2.Promote()
	if err != nil || epoch != 2 {
		t.Fatalf("promote: epoch %d, %v", epoch, err)
	}
	d, err := follower2.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 40000, MaxRate: 1 * units.GBps})
	if err != nil || !d.Accepted {
		t.Fatalf("post-promotion submit: %v %+v", err, d)
	}
	// No double booking across failover: every inherited grant exists
	// exactly once and the ledger still satisfies the capacity bound.
	if err := follower2.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
	// The deposed primary's stream is fenced off the new lineage.
	if err := follower2.ApplyShipped(cluster.ShippedBatch{Epoch: 1}); err == nil {
		t.Fatal("promoted daemon accepted a deposed primary's batch")
	}
}
