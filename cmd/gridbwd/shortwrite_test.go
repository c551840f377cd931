package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridbw/internal/faults"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// The short-write recovery sweep: where the PR 4 harness truncated a
// *copy* of the log at every byte offset, this one drives the injected
// filesystem itself — the daemon's own append is torn at each byte
// boundary of the last frame, the WAL fail-stops, and the restarted
// process must recover exactly the pre-fault history: every earlier
// decision intact, the torn decision gone, the ledger feasible, new
// admissions flowing. Both fsync policies make the same promise; only
// the loss *window* differs, and a torn tail is in that window for both.

const shortWriteSeedDecisions = 4

// frozenClock pins the service clock so every run of the seed workload
// serializes to byte-identical WAL frames — which is what lets one dry
// run measure the final frame's width for the byte sweep.
func frozenClock() func() time.Time {
	at := time.Unix(1700000000, 0)
	return func() time.Time { return at }
}

// runTornAppend boots a daemon on a fault-injecting WAL in dir, books
// the seed decisions, then arms a short write of keep bytes and books
// one more. keep < 0 skips the fault (the measurement run).
func runTornAppend(t *testing.T, dir string, policy wal.SyncPolicy, keep int64) {
	t.Helper()
	dfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
	l, _, err := wal.Open(dir, wal.Options{FS: dfs, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	bc := walBootConfig(l)
	bc.Clock = frozenClock()
	srv, err := server.New(bc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shortWriteSeedDecisions; i++ {
		d, err := srv.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2,
			Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("seed submit %d: %v %+v", i, err, d)
		}
	}
	if keep >= 0 {
		dfs.ShortNextWrite(keep)
	}
	// The torn decision: the admission itself still answers (async
	// durability), but the frame is cut mid-write and the WAL fail-stops.
	if _, err := srv.Submit(server.Submission{
		From: 0, To: 1, Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
	}); err != nil {
		t.Fatalf("torn submit: %v", err)
	}
	if keep >= 0 && l.Poisoned() == nil {
		t.Fatalf("keep=%d: WAL not poisoned after short write", keep)
	}
	srv.Close()
	l.Close()
}

func segmentSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "wal-00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestShortWriteEveryOffsetRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy wal.SyncPolicy
	}{
		{"fsync-always", wal.SyncAlways},
		{"fsync-interval", wal.SyncInterval},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Measurement run: no fault, frozen clock, so the last frame's
			// byte width is the same in every faulted run below.
			whole := t.TempDir()
			runTornAppend(t, whole, tc.policy, -1)
			wholeSize := segmentSize(t, whole)

			prefix := t.TempDir()
			dfsMeasure := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
			lp, _, err := wal.Open(prefix, wal.Options{FS: dfsMeasure, Policy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			bcp := walBootConfig(lp)
			bcp.Clock = frozenClock()
			srvp, err := server.New(bcp)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < shortWriteSeedDecisions; i++ {
				if d, err := srvp.Submit(server.Submission{
					From: i % 2, To: (i + 1) % 2,
					Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
				}); err != nil || !d.Accepted {
					t.Fatalf("prefix submit %d: %v %+v", i, err, d)
				}
			}
			oracle, _, err := server.ReadWALEvents(lp, wal.Pos{})
			if err != nil {
				t.Fatal(err)
			}
			srvp.Close()
			lp.Close()
			lastFrame := wholeSize - segmentSize(t, prefix)
			if lastFrame <= 8 {
				t.Fatalf("implausible last frame size %d", lastFrame)
			}

			// The sweep: tear the final append at every byte boundary —
			// inside the header, inside the CRC, every payload byte.
			for keep := int64(0); keep < lastFrame; keep++ {
				dir := t.TempDir()
				runTornAppend(t, dir, tc.policy, keep)
				// Exact-count check first: the torn frame must be dropped and
				// *only* the torn frame — checkRecovery appends fresh decisions
				// to the same directory afterwards.
				l2, _, err := wal.Open(dir, wal.Options{})
				if err != nil {
					t.Fatalf("keep=%d reopen: %v", keep, err)
				}
				survivors, _, err := server.ReadWALEvents(l2, wal.Pos{})
				l2.Close()
				if err != nil {
					t.Fatalf("keep=%d: %v", keep, err)
				}
				if len(survivors) != len(oracle) {
					t.Fatalf("keep=%d: recovered %d events, want exactly the %d pre-fault decisions",
						keep, len(survivors), len(oracle))
				}
				checkRecovery(t, dir, oracle, 0)
			}
			t.Logf("%s: swept %d torn-append offsets", tc.name, lastFrame)
		})
	}
	t.Run("checkpoint", func(t *testing.T) {
		for _, compact := range []bool{false, true} {
			tornCheckpointEveryOffset(t, compact)
		}
	})
}

// tornCheckpointEveryOffset cuts the checkpoint file at every byte offset
// and boots. Frames are self-validating, so a cut at a frame boundary is
// a well-formed shorter checkpoint: only the event count its header
// declares tells it apart. Every cut must fall back to the whole WAL — and
// rebuild the full state — or, once compaction dropped the WAL's head,
// refuse the boot; it must never install fewer events.
func tornCheckpointEveryOffset(t *testing.T, compact bool) {
	dir := t.TempDir()
	opt := wal.Options{}
	if compact {
		opt.SegmentBytes = 128 // a few records a segment, so compaction drops the head
	}
	l, _, err := wal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bc := walBootConfig(l)
	bc.Clock = frozenClock()
	srv, err := server.New(bc)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(i int) {
		t.Helper()
		if d, err := srv.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2, Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
		}); err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
	}
	for i := 0; i < shortWriteSeedDecisions; i++ {
		submit(i)
	}
	if err := persistSnapshot(srv, l, compact); err != nil {
		t.Fatal(err)
	}
	submit(shortWriteSeedDecisions) // the suffix past the checkpoint
	want := len(srv.LiveReservations())
	srv.Close()
	if compact && l.FirstPos().Seg == 1 {
		t.Fatal("compaction kept the WAL's head")
	}
	path := filepath.Join(dir, server.CheckpointName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boot := func(cut int) (string, error) {
		t.Helper()
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, how, err := startRoute(bc)
		if err != nil {
			return "", err
		}
		defer s.Close()
		if live := len(s.LiveReservations()); live != want {
			t.Fatalf("compact=%v, cut %d of %d: booted %d live reservations, want %d (%s)", compact, cut, len(blob), live, want, how)
		}
		return how, nil
	}
	for cut := 0; cut < len(blob); cut++ {
		how, err := boot(cut)
		switch {
		case compact && err == nil:
			t.Fatalf("cut %d of %d: booted with the WAL's head gone (%s)", cut, len(blob), how)
		case !compact && err != nil:
			t.Fatalf("cut %d of %d: %v, want the fall-back to the whole WAL", cut, len(blob), err)
		case !compact && !strings.Contains(how, "fresh server"):
			t.Fatalf("cut %d of %d: boot %q, want the fall-back to the whole WAL", cut, len(blob), how)
		}
	}
	if how, err := boot(len(blob)); err != nil || !strings.Contains(how, "restored checkpoint") {
		t.Fatalf("the whole checkpoint: %q, %v", how, err)
	}
	t.Logf("compact=%v: swept %d checkpoint offsets", compact, len(blob))
}
