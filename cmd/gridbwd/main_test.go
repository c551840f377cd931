package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

func testBootConfig(dir string) bootConfig {
	return bootConfig{
		snapshotPath: filepath.Join(dir, "gridbwd.snap.json"),
		ingress:      []units.Bandwidth{1 * units.GBps},
		egress:       []units.Bandwidth{1 * units.GBps},
		policy:       "minbw",
	}
}

// seedState runs a short daemon lifetime, leaving a snapshot on disk with
// one live reservation.
func seedState(t *testing.T, bc bootConfig) server.Decision {
	t.Helper()
	s, err := server.New(bc.platformConfig())
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
	if err := s.Snapshot().WriteFile(bc.snapshotPath); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBootFreshWhenNoSnapshot(t *testing.T) {
	bc := testBootConfig(t.TempDir())
	srv, how, err := bootServer(bc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(how, "fresh") {
		t.Errorf("recovery path = %q, want fresh boot", how)
	}
}

func TestBootRestoresSnapshot(t *testing.T) {
	bc := testBootConfig(t.TempDir())
	want := seedState(t, bc)
	srv, how, err := bootServer(bc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(how, "snapshot") {
		t.Errorf("recovery path = %q, want snapshot restore", how)
	}
	live := srv.LiveReservations()
	if len(live) != 1 || live[0].Req.ID != want.ID {
		t.Errorf("live after restore = %+v, want reservation %d", live, want.ID)
	}
}

// TestBootFailsWithoutAnyRecoveryPath: a corrupt snapshot with no WAL
// history behind it is a hard error naming both problems — a fresh boot
// would silently discard whatever the snapshot held, and the -decision-log
// audit export is never a recovery source.
func TestBootFailsWithoutAnyRecoveryPath(t *testing.T) {
	bc := testBootConfig(t.TempDir())
	if err := os.WriteFile(bc.snapshotPath, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := bootServer(bc)
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
func seedHoldWAL(t *testing.T, bc bootConfig, dir string) server.Decision {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := bc.platformConfig()
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
		res, err := s.HoldReserve([]server.HoldReserveJSON{{
			Hold: key, Side: trace.HoldSideIngress, Point: 0, PeerPoint: 0,
			VolumeBytes: 1e11, MaxRateBps: 1e9, DeadlineS: 4000,
		}})
		if err != nil || !res[0].Held {
			t.Fatalf("reserve %s: %v %+v", key, err, res)
		}
	}
	if res, err := s.HoldConfirm([]server.HoldRefJSON{{Hold: "confirmed"}}); err != nil || res[0].Code != 0 {
		t.Fatalf("confirm: %v %+v", err, res)
	}
	if res, err := s.HoldAbort([]server.HoldRefJSON{{Hold: "aborted"}}); err != nil || !res[0].Released {
		t.Fatalf("abort: %v %+v", err, res)
	}
	return kept
}

// TestBootFullWALWithHolds: a primary that lost its snapshot — missing,
// corrupt, or written by a build whose format is no longer restored —
// boots from its own intact WAL, hold events included, with the live grant
// and the confirmed hold booked. A WAL whose records over-commit a point
// still refuses the boot.
func TestBootFullWALWithHolds(t *testing.T) {
	oldFormat, err := json.Marshal(map[string]any{"version": server.SnapshotVersion - 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, snapshot := range map[string][]byte{
		"missing snapshot":    nil,
		"corrupt snapshot":    []byte("{ not json"),
		"old-format snapshot": oldFormat,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			bc := testBootConfig(dir)
			kept := seedHoldWAL(t, bc, filepath.Join(dir, "wal"))
			if snapshot != nil {
				if err := os.WriteFile(bc.snapshotPath, snapshot, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			bc.wal, bc.base.WAL = l, l

			srv, how, err := bootServer(bc)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(how, "fresh") || !strings.Contains(how, "WAL events") {
				t.Errorf("recovery path = %q, want the full-WAL rung", how)
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
			// now refuse, naming the snapshot too when there was one.
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
			_, _, err = bootServer(bc)
			if err == nil {
				t.Fatal("boot succeeded from a WAL that over-commits a point")
			}
			if !strings.Contains(err.Error(), "replay WAL") || (snapshot != nil && !strings.Contains(err.Error(), "unusable")) {
				t.Errorf("error %q does not explain every failure", err)
			}
		})
	}
}

// TestBootRefusesCompactedFullWAL: with no usable snapshot the WAL has to
// carry all of history; one whose head was compacted away is refused
// rather than replayed from wherever it now starts.
func TestBootRefusesCompactedFullWAL(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bc := walBootConfig(l)
	srv, err := server.New(bc.platformConfig())
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
	if _, _, err := bootServer(bc); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("boot from a compacted WAL: err = %v, want ErrCompacted", err)
	}
}
