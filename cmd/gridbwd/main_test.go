package main

import (
	"encoding/json"
	"errors"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// startRoute starts cfg as run does and reports the route its boot took.
func startRoute(cfg server.Config) (*server.Server, string, error) {
	srv, err := start(cfg)
	if err != nil {
		return nil, "", err
	}
	return srv, srv.BootRoute(), nil
}

// testBootConfig is a one-point platform booting from the WAL directory
// dir.
func testBootConfig(t *testing.T, dir string) server.Config {
	t.Helper()
	bc := server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps},
		Policy:  "minbw",
	}
	return withWAL(t, bc, dir)
}

// withWAL opens the WAL in dir for bc's boot.
func withWAL(t *testing.T, bc server.Config, dir string) server.Config {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	bc.WAL = l
	return bc
}

// checkpointPath is where bc's boot looks for its checkpoint.
func checkpointPath(bc server.Config) string {
	return filepath.Join(bc.WAL.Dir(), server.CheckpointName)
}

// seedState runs a short daemon lifetime, leaving a checkpoint on disk with
// one live reservation.
func seedState(t *testing.T, bc server.Config) server.Decision {
	t.Helper()
	s, err := server.New(bc)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.Submit(server.Submission{
		From: 0, To: 0, Volume: 100 * units.GB, Deadline: 4000, MaxRate: 500 * units.MBps,
	})
	if err != nil || !d.Accepted {
		t.Fatalf("seed submission: %v %+v", err, d)
	}
	if err := persistSnapshot(s, bc.WAL, false); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBootFreshWhenNoSnapshot(t *testing.T) {
	bc := testBootConfig(t, t.TempDir())
	srv, how, err := startRoute(bc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(how, "fresh") {
		t.Errorf("recovery path = %q, want fresh boot", how)
	}
}

func TestBootRestoresSnapshot(t *testing.T) {
	bc := testBootConfig(t, t.TempDir())
	want := seedState(t, bc)
	srv, how, err := startRoute(bc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(how, "restored checkpoint") {
		t.Errorf("recovery path = %q, want checkpoint restore", how)
	}
	live := srv.LiveReservations()
	if len(live) != 1 || live[0].Req.ID != want.ID {
		t.Errorf("live after restore = %+v, want reservation %d", live, want.ID)
	}
}

// TestBootFailsWithoutAnyRecoveryPath: a corrupt checkpoint with no WAL
// history behind it is a hard error naming both problems — a fresh boot
// would silently discard whatever the checkpoint held.
func TestBootFailsWithoutAnyRecoveryPath(t *testing.T) {
	bc := testBootConfig(t, t.TempDir())
	if err := os.WriteFile(checkpointPath(bc), []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := startRoute(bc)
	if err == nil {
		t.Fatal("boot succeeded with no usable state source")
	}
	if !strings.Contains(err.Error(), "unusable") || !strings.Contains(err.Error(), "WAL") {
		t.Errorf("error %q does not explain both failures", err)
	}
}

// seedHoldWAL runs a primary over a fresh WAL in dir and leaves every event
// kind a shard behind gridbwrouter logs — accept, cancel, hold_reserve,
// hold_confirm, hold_abort — with one grant live and one hold confirmed.
// It returns the live grant's decision.
func seedHoldWAL(t *testing.T, bc server.Config, dir string) server.Decision {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := bc
	cfg.WAL = l
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	submit := func() server.Decision {
		d, err := s.Submit(server.Submission{
			From: 0, To: 0, Volume: 100 * units.GB, Deadline: 4000, MaxRate: 500 * units.MBps,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("seed submission: %v %+v", err, d)
		}
		return d
	}
	kept := submit()
	if _, err := s.Cancel(submit().ID); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"confirmed", "aborted"} {
		res, err := s.HoldReserve([]wire.HoldReserveJSON{{
			Hold: key, Side: trace.HoldSideIngress, Point: 0, PeerPoint: 0,
			VolumeBytes: 1e11, MaxRateBps: 1e9, DeadlineS: 4000,
		}})
		if err != nil || !res[0].Held {
			t.Fatalf("reserve %s: %v %+v", key, err, res)
		}
	}
	if res, err := s.HoldConfirm([]wire.HoldRef{{Key: []byte("confirmed")}}); err != nil || res[0].Code != 0 {
		t.Fatalf("confirm: %v %+v", err, res)
	}
	if res, err := s.HoldAbort([]wire.HoldRef{{Key: []byte("aborted")}}); err != nil || !res[0].Released {
		t.Fatalf("abort: %v %+v", err, res)
	}
	return kept
}

// TestBootFullWALWithHolds: a primary that lost its checkpoint — missing,
// corrupt, or written by a build whose format is no longer restored (a
// version 4 JSON snapshot, or a framed header of an older version) — boots
// from its own intact WAL, hold events included, with the live grant and
// the confirmed hold booked. A WAL whose records over-commit a point still
// refuses the boot.
func TestBootFullWALWithHolds(t *testing.T) {
	oldFormat, err := json.Marshal(map[string]any{"version": server.SnapshotVersion - 1, "events": 0})
	if err != nil {
		t.Fatal(err)
	}
	for name, snapshot := range map[string][]byte{
		"missing snapshot":    nil,
		"corrupt snapshot":    []byte("{ not json"),
		"old-format snapshot": oldFormat,
		"old framed header":   wal.AppendFrame(nil, oldFormat),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			bc := testBootConfig(t, t.TempDir())
			kept := seedHoldWAL(t, bc, dir)
			bc = withWAL(t, bc, dir)
			if snapshot != nil {
				if err := os.WriteFile(checkpointPath(bc), snapshot, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l := bc.WAL

			srv, how, err := startRoute(bc)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(how, "fresh") || !strings.Contains(how, "WAL events") {
				t.Errorf("recovery path = %q, want the full-WAL route", how)
			}
			live := srv.LiveReservations()
			if len(live) != 1 || live[0].Req.ID != kept.ID || live[0].Grant.Bandwidth != kept.Rate {
				t.Errorf("live after replay = %+v, want reservation %d at %v", live, kept.ID, kept.Rate)
			}
			if held, confirmed := srv.HoldStats(); held != 0 || confirmed != 1 {
				t.Errorf("holds after replay = %d held / %d confirmed, want 0/1", held, confirmed)
			}
			if err := srv.VerifyInvariant(); err != nil {
				t.Error(err)
			}
			srv.Close()

			// One more record, over the point's capacity: the same boot must
			// now refuse, naming the checkpoint too when there was one.
			tampered, err := json.Marshal(trace.Event{
				Kind: trace.EventAccept, Request: 99, Ingress: 0, Egress: 0,
				RateBps: 2e9, SigmaS: 0, TauS: 4000, VolumeB: 8e12, MaxRateBps: 2e9,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(tampered); err != nil {
				t.Fatal(err)
			}
			_, _, err = startRoute(bc)
			if err == nil {
				t.Fatal("boot succeeded from a WAL that over-commits a point")
			}
			if !strings.Contains(err.Error(), "replay WAL") || (snapshot != nil && !strings.Contains(err.Error(), "unusable")) {
				t.Errorf("error %q does not explain every failure", err)
			}
		})
	}
}

// TestBootRefusesCompactedFullWAL: with no usable checkpoint the WAL has
// to carry all of history; one whose head was compacted away is refused
// rather than replayed from wherever it now starts.
func TestBootRefusesCompactedFullWAL(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bc := walBootConfig(l)
	srv, err := server.New(bc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if d, err := srv.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 4000, MaxRate: 50 * units.MBps}); err != nil || !d.Accepted {
			t.Fatalf("seed submission %d: %v %+v", i, err, d)
		}
	}
	srv.Close()
	if dropped, err := l.CompactBefore(l.End()); err != nil || dropped == 0 {
		t.Fatalf("compaction dropped %d segments (%v), want > 0", dropped, err)
	}
	if _, _, err := startRoute(bc); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("boot from a compacted WAL: err = %v, want ErrCompacted", err)
	}
}

// TestFollowerRestartsAfterCompactingCheckpoint: a follower that writes a
// checkpoint and compacts its WAL behind it — what -snapshot-every with
// -wal-compact does at every period and at shutdown — boots from that
// checkpoint and the WAL past it, not from 1:0, which compaction dropped,
// and follows on.
func TestFollowerRestartsAfterCompactingCheckpoint(t *testing.T) {
	pwal, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pwal.Close() })
	primary, _, err := startRoute(walBootConfig(pwal))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	fdir := t.TempDir()
	opt := wal.Options{SegmentBytes: 256}
	fwal, _, err := wal.Open(fdir, opt)
	if err != nil {
		t.Fatal(err)
	}
	fbc := walBootConfig(fwal)
	fbc.Follow = pts.URL
	follower, _, err := startRoute(fbc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if d, err := primary.Submit(server.Submission{From: i % 2, To: (i + 1) % 2, Volume: 1 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps}); err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
	}
	waitUntil(t, "follower catch-up", func() bool { return follower.ReplicationStatus().Cursor == pwal.End() })
	follower.Close()
	if err := persistSnapshot(follower, fwal, true); err != nil {
		t.Fatal(err)
	}
	if fwal.FirstPos().Seg == 1 {
		t.Fatal("compaction kept segment 1; the head is not gone")
	}
	fwal.Close()

	fwal2, _, err := wal.Open(fdir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fwal2.Close() })
	fbc2 := walBootConfig(fwal2)
	fbc2.Follow = pts.URL
	follower2, how, err := startRoute(fbc2)
	if err != nil {
		t.Fatalf("follower reboot after checkpoint and compaction: %v", err)
	}
	defer follower2.Close()
	if !strings.Contains(how, "following") || !strings.Contains(how, "restored checkpoint") {
		t.Fatalf("reboot path = %q, want a follower restoring its checkpoint", how)
	}
	if got := len(follower2.LiveReservations()); got != 8 {
		t.Fatalf("live after reboot = %d, want 8", got)
	}
	if d, err := primary.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps}); err != nil || !d.Accepted {
		t.Fatalf("post-reboot submit: %v %+v", err, d)
	}
	waitUntil(t, "post-reboot catch-up", func() bool { return len(follower2.LiveReservations()) == 9 })
	if err := follower2.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeRules pins what an older deployment meets: the command lines
// of the two deleted flags fail parsing, -snapshot-every without the -wal
// directory its checkpoint lives in is refused, a WAL directory holding an
// older version's re-seed snapshot, whose WAL head is gone, refuses to boot
// with an error that names the file and the way out, and so does a WAL of
// JSON records, written below the upgrade floor, with one that names the
// floor.
func TestUpgradeRules(t *testing.T) {
	for _, args := range [][]string{
		{"-snapshot", "gridbwd.snap.json"},
		{"-decision-log", "decisions.jsonl"},
		{"-snapshot-every", "30s"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) started, want it refused", args)
		}
	}

	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bc := walBootConfig(l)
	srv, err := server.New(bc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if d, err := srv.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 4000, MaxRate: 50 * units.MBps}); err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
	}
	srv.Close()
	if dropped, err := l.CompactBefore(l.End()); err != nil || dropped == 0 {
		t.Fatalf("compaction dropped %d segments (%v), want > 0", dropped, err)
	}
	// The JSON snapshot a follower of an older version wrote when it
	// re-seeded.
	const legacyReseedName = "reseed.snap.json"
	if err := os.WriteFile(filepath.Join(dir, legacyReseedName), []byte(`{"version":4,"events":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	bc.Follow = "http://127.0.0.1:0" // never dialed: the boot refuses first
	_, _, err = startRoute(bc)
	if err == nil || !strings.Contains(err.Error(), legacyReseedName) || !strings.Contains(err.Error(), "wipe the WAL directory") {
		t.Fatalf("boot with a leftover %s: %v, want a refusal naming it and the rule", legacyReseedName, err)
	}

	jdir := t.TempDir()
	jl, _, err := wal.Open(jdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	record, err := json.Marshal(trace.Event{Kind: trace.EventAccept, Ingress: 0, Egress: 1, RateBps: 1e8, TauS: 100, VolumeB: 1e10, MaxRateBps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jl.Append(record); err != nil {
		t.Fatal(err)
	}
	if s, _, err := startRoute(walBootConfig(jl)); err == nil || !strings.Contains(err.Error(), "upgrade floor") || !strings.Contains(err.Error(), "wipe the WAL directory") {
		if s != nil {
			s.Close()
		}
		t.Fatalf("boot over a WAL of JSON records: %v, want a refusal naming the upgrade floor and the way out", err)
	}
}

// TestBootMixedLogAfterUpgrade: a build below the upgrade floor wrote the
// head of this WAL as JSON records (json.Marshal(trace.Event) is exactly its
// encoder) and a checkpoint in its format; a later build went on with
// binary records. Neither route of the boot, the checkpoint plus the WAL
// past it or the whole WAL, reads it: the boot refuses with the error that
// names the floor and the way out, and leaves every file in the directory
// as it was.
func TestBootMixedLogAfterUpgrade(t *testing.T) {
	bdir := t.TempDir()
	bl, _, err := wal.Open(bdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	bc := walBootConfig(bl)
	bc.Clock = frozenClock()
	srv, err := server.New(bc)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(i int, key string, accept bool) server.Decision {
		t.Helper()
		volume := 5 * units.GB
		if !accept {
			volume = 5 * units.PB
		}
		d, err := srv.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2, Volume: volume, Deadline: 40000, MaxRate: 50 * units.MBps, IdempotencyKey: key,
		})
		if err != nil || d.Accepted != accept {
			t.Fatalf("submit %d: %v %+v, want accepted=%v", i, err, d, accept)
		}
		return d
	}
	submit(0, "head-0", true)
	if _, err := srv.Cancel(submit(1, "", true).ID); err != nil {
		t.Fatal(err)
	}
	submit(2, "head-2", false)
	res, err := srv.HoldReserve([]wire.HoldReserveJSON{{
		Hold: "h", Side: trace.HoldSideIngress, Point: 0, PeerPoint: 1, VolumeBytes: 1e11, MaxRateBps: 1e8, DeadlineS: 4000,
	}})
	if err != nil || !res[0].Held {
		t.Fatalf("reserve: %v %+v", err, res)
	}
	cut := int(bl.Records())
	mid := srv.Snapshot()
	if ref, err := srv.HoldConfirm([]wire.HoldRef{{Key: []byte("h")}}); err != nil || ref[0].Code != 0 {
		t.Fatalf("confirm: %v %+v", err, ref)
	}
	submit(3, "tail-3", true)
	submit(4, "", true)
	srv.Close()
	events, _, err := server.ReadWALEvents(bl, wal.Pos{})
	if err != nil {
		t.Fatal(err)
	}

	// The history: the first cut records as the older build wrote them, the
	// rest as a later one does, and the older build's checkpoint of the
	// state after the cut.
	mdir := t.TempDir()
	ml, _, err := wal.Open(mdir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	var midPos wal.Pos
	for i := range events {
		var p []byte
		if i < cut {
			p, err = json.Marshal(events[i])
		} else {
			p, err = trace.AppendRecord(nil, &events[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		pos, err := ml.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if i == cut-1 {
			midPos = pos
		}
	}
	mid.WALSeg, mid.WALOff = midPos.Seg, midPos.Off
	header, err := json.Marshal(struct {
		*server.Snapshot
		Events int `json:"events"`
	}{mid, len(mid.Events)})
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := wal.AppendFrame(nil, header)
	for _, ev := range mid.Events {
		p, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		checkpoint = wal.AppendFrame(checkpoint, p)
	}
	mbc := walBootConfig(ml)
	mbc.Clock = frozenClock()
	if err := os.WriteFile(checkpointPath(mbc), checkpoint, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"checkpoint and WAL", "whole WAL"} {
		if route == "whole WAL" {
			if err := os.Remove(checkpointPath(mbc)); err != nil {
				t.Fatal(err)
			}
		}
		before := dirFiles(t, mdir)
		s, _, err := startRoute(mbc)
		if s != nil {
			s.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "upgrade floor") || !strings.Contains(err.Error(), "wipe the WAL directory") {
			t.Fatalf("%s: boot over JSON records: %v, want the upgrade-floor refusal", route, err)
		}
		t.Logf("%s: %v", route, err)
		if after := dirFiles(t, mdir); !maps.Equal(after, before) {
			t.Fatalf("%s: the refused boot changed the directory: %d files before, %d after", route, len(before), len(after))
		}
	}
}

// dirFiles reads every file of dir, name to contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}
