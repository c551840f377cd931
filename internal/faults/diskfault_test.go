package faults_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"gridbw/internal/faults"
	"gridbw/internal/wal"
)

func openWAL(t *testing.T, dir string, fsys wal.FS, policy wal.SyncPolicy) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{Policy: policy, FS: fsys})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l
}

// An injected fsync error must poison the log: the failing append errors,
// every later append and sync returns ErrPoisoned even though the disk
// "works" again, and only a reopen recovers.
func TestFsyncErrorPoisonsWAL(t *testing.T) {
	dir := t.TempDir()
	dfs := faults.NewDiskFS(nil, faults.DiskConfig{})
	l := openWAL(t, dir, dfs, wal.SyncAlways)

	if _, err := l.Append([]byte("healthy")); err != nil {
		t.Fatalf("append: %v", err)
	}
	dfs.FailNextFsyncs(1)
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("append under fsync fault: got %v, want ErrPoisoned", err)
	}
	// The fault is gone, but the poison must stick: the dropped dirty
	// pages cannot be re-synced by retrying.
	if _, err := l.Append([]byte("retry")); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("append after fault cleared: got %v, want ErrPoisoned", err)
	}
	if err := l.Sync(); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("sync on poisoned log: got %v, want ErrPoisoned", err)
	}
	if l.Poisoned() == nil {
		t.Fatal("Poisoned() = nil on poisoned log")
	}
	l.Close()

	// Restart recovers: the doomed record was written before its failed
	// fsync, so recovery may keep or drop it, but the log must accept
	// appends again and stay frame-consistent.
	l2, rec, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec.Records < 1 {
		t.Fatalf("recovery lost the synced record: %v", rec)
	}
	if _, err := l2.Append([]byte("after restart")); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
}

// A short write must poison the log, and a reopen must truncate the torn
// frame so exactly the pre-fault records survive.
func TestShortWritePoisonsAndRecoveryTruncates(t *testing.T) {
	// The injected frame is 8+6=14 bytes; keep strictly less than that so
	// the tail is genuinely torn (a 14-byte "short" write is a full frame
	// and legitimately survives recovery).
	for keep := int64(0); keep < 14; keep++ {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			dir := t.TempDir()
			dfs := faults.NewDiskFS(nil, faults.DiskConfig{})
			l := openWAL(t, dir, dfs, wal.SyncAlways)
			if _, err := l.Append([]byte("first")); err != nil {
				t.Fatalf("append: %v", err)
			}
			dfs.ShortNextWrite(keep)
			if _, err := l.Append([]byte("second")); !errors.Is(err, wal.ErrPoisoned) {
				t.Fatalf("short write: got %v, want ErrPoisoned", err)
			}
			if _, err := l.Append([]byte("third")); !errors.Is(err, wal.ErrPoisoned) {
				t.Fatalf("append after short write: got %v, want ErrPoisoned", err)
			}
			l.Close()

			l2, rec, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			if rec.Records != 1 {
				t.Fatalf("recovered %d records, want exactly the pre-fault 1 (recovery %v)", rec.Records, rec)
			}
			payloads, _, _, err := l2.ReadFrom(wal.Pos{}, 16, 1<<20)
			if err != nil {
				t.Fatalf("ReadFrom: %v", err)
			}
			if len(payloads) != 1 || string(payloads[0]) != "first" {
				t.Fatalf("survivors = %q, want [first]", payloads)
			}
		})
	}
}

// Injected ENOSPC surfaces as a real ENOSPC to callers and poisons the
// append path.
func TestENOSPCPoisons(t *testing.T) {
	dir := t.TempDir()
	dfs := faults.NewDiskFS(nil, faults.DiskConfig{})
	l := openWAL(t, dir, dfs, wal.SyncAlways)
	defer l.Close()
	dfs.FailNextENOSPC(1)
	_, err := l.Append([]byte("full"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append: got %v, want ENOSPC", err)
	}
	if !errors.Is(err, wal.ErrPoisoned) && l.Poisoned() == nil {
		t.Fatalf("ENOSPC did not poison the log: %v", err)
	}
}

// A failed meta rename must leave the previous value intact and no *.tmp
// debris behind.
func TestMetaRenameFailureKeepsOldValue(t *testing.T) {
	dir := t.TempDir()
	dfs := faults.NewDiskFS(nil, faults.DiskConfig{})
	l := openWAL(t, dir, dfs, wal.SyncAlways)
	defer l.Close()

	if err := l.SaveEpoch(3); err != nil {
		t.Fatalf("SaveEpoch: %v", err)
	}
	dfs.FailNextRenames(1)
	if err := l.SaveEpoch(4); err == nil {
		t.Fatal("SaveEpoch under rename fault: want error")
	}
	got, err := l.LoadEpoch()
	if err != nil {
		t.Fatalf("LoadEpoch: %v", err)
	}
	if got != 3 {
		t.Fatalf("epoch after failed rename = %d, want the old 3", got)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("tmp debris left behind: %s", e.Name())
		}
	}
	// A dir-fsync failure also surfaces as an error (the rename may not
	// be durable) without corrupting the readable value.
	dfs.FailNextDirSyncs(1)
	if err := l.SaveEpoch(5); err == nil {
		t.Fatal("SaveEpoch under dir-fsync fault: want error")
	}
	if got, _ := l.LoadEpoch(); got != 3 && got != 5 {
		t.Fatalf("epoch after failed dir fsync = %d, want old 3 or new 5", got)
	}
}

// A meta file whose write or fsync failed is not taken: the save reports
// the error, the previous value stays readable, and no temp debris stays.
// A vote must never count as cast when it did not reach the disk.
func TestMetaWriteFaultKeepsOldValue(t *testing.T) {
	dir := t.TempDir()
	dfs := faults.NewDiskFS(nil, faults.DiskConfig{})
	l := openWAL(t, dir, dfs, wal.SyncAlways)
	defer l.Close()
	if err := l.SaveVote(wal.Vote{Epoch: 3, Candidate: "a"}); err != nil {
		t.Fatalf("SaveVote: %v", err)
	}
	for name, arm := range map[string]func(){
		"write": func() { dfs.FailNextWrites(1) },
		"short": func() { dfs.ShortNextWrite(5) },
		"fsync": func() { dfs.FailNextFsyncs(1) },
	} {
		arm()
		if err := l.SaveVote(wal.Vote{Epoch: 4, Candidate: "b"}); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s fault: SaveVote = %v, want the injected error", name, err)
		}
		if v, err := l.LoadVote(); err != nil || v != (wal.Vote{Epoch: 3, Candidate: "a"}) {
			t.Fatalf("%s fault: vote %+v (%v), want the old 3/a", name, v, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "vote.tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s fault: temp file left behind: %v", name, err)
		}
	}
}

// A cursor save torn at any byte must cost exactly that save: the record
// lives in two alternating slots, so boot falls back to the other slot —
// the previous cursor — and never reads a torn one.
func TestCursorRecordShortWriteEveryOffset(t *testing.T) {
	const recordBytes = 48
	for keep := int64(0); keep < recordBytes; keep++ {
		dir := t.TempDir()
		dfs := faults.NewDiskFS(nil, faults.DiskConfig{})
		l := openWAL(t, dir, dfs, wal.SyncNever)
		// Two good saves fill both slots; the torn third overwrites the
		// older one.
		good := wal.Pos{Seg: 1, Off: 200}
		for _, p := range []wal.Pos{{Seg: 1, Off: 100}, good} {
			if _, err := l.Append([]byte("frame")); err != nil {
				t.Fatal(err)
			}
			if err := l.SaveCursor(p, l.End()); err != nil {
				t.Fatal(err)
			}
		}
		dfs.ShortNextWrite(keep)
		if err := l.SaveCursor(wal.Pos{Seg: 1, Off: 300}, l.End()); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("keep=%d: torn save = %v, want the injected error", keep, err)
		}
		if got := l.Cursor(); got != good {
			t.Fatalf("keep=%d: live cursor after a failed save = %v, want %v", keep, got, good)
		}
		l.Close()

		l = openWAL(t, dir, dfs, wal.SyncNever)
		if got := l.Cursor(); got != good {
			t.Fatalf("keep=%d: boot resumed at %v, want %v", keep, got, good)
		}
		// The next save lands in the torn slot and is the newest again.
		next := wal.Pos{Seg: 1, Off: 400}
		if err := l.SaveCursor(next, l.End()); err != nil {
			t.Fatalf("keep=%d: save after the tear: %v", keep, err)
		}
		l.Close()
		l = openWAL(t, dir, dfs, wal.SyncNever)
		if got := l.Cursor(); got != next {
			t.Fatalf("keep=%d: boot after the repair resumed at %v, want %v", keep, got, next)
		}
		l.Close()
	}
}

// The probabilistic schedule is a pure function of its seed.
func TestDiskFaultDeterminism(t *testing.T) {
	run := func() (faults.DiskStats, []string) {
		dir := t.TempDir()
		dfs := faults.NewDiskFS(nil, faults.DiskConfig{
			Seed: 42, ShortWrite: 0.2, FsyncErr: 0.2, WriteErr: 0.1,
		})
		l := openWAL(t, dir, dfs, wal.SyncAlways)
		defer l.Close()
		var outcomes []string
		for i := 0; i < 50; i++ {
			_, err := l.Append([]byte(strings.Repeat("x", 32)))
			if err != nil {
				outcomes = append(outcomes, fmt.Sprintf("%d:%v", i, errors.Is(err, wal.ErrPoisoned)))
				break
			}
			outcomes = append(outcomes, fmt.Sprintf("%d:ok", i))
		}
		return dfs.Stats(), outcomes
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical seeds: %+v vs %+v", s1, s2)
	}
	if fmt.Sprint(o1) != fmt.Sprint(o2) {
		t.Fatalf("outcomes differ across identical seeds:\n%v\n%v", o1, o2)
	}
}
