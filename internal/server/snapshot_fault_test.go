package server_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gridbw/internal/faults"
	"gridbw/internal/server"
	"gridbw/internal/wal"
)

// Checkpoint writes are the one place a disk fault could corrupt recovery
// *ahead* of the WAL: boot prefers the checkpoint, so a half-written one
// would beat an intact log. These tests tear the write at the rename and
// dir-fsync steps and demand the previous checkpoint stays the one
// recovery sees.

func snapshotOf(t *testing.T, accepts int) *server.Snapshot {
	t.Helper()
	s := newTestServer(t, uniformConfig(nil))
	for i := 0; i < accepts; i++ {
		if d, err := s.Submit(submission(i, false)); err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
	}
	return s.Snapshot()
}

func readSnapFile(t *testing.T, path string) *server.Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open snapshot: %v", err)
	}
	defer f.Close()
	snap, err := server.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("parse snapshot: %v", err)
	}
	return snap
}

func TestSnapshotRenameFaultKeepsOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, server.CheckpointName)

	old := snapshotOf(t, 2)
	if err := old.WriteFileFS(wal.OSFS{}, path); err != nil {
		t.Fatalf("baseline write: %v", err)
	}

	dfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
	dfs.FailNextRenames(1)
	next := snapshotOf(t, 4)
	err := next.WriteFileFS(dfs, path)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("torn write: %v, want injected fault", err)
	}

	// The previous snapshot is untouched and no temp debris survives to
	// confuse a later boot.
	got := readSnapFile(t, path)
	if len(got.Events) != len(old.Events) {
		t.Fatalf("snapshot has %d events after torn write, want the old %d",
			len(got.Events), len(old.Events))
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}

	// A later healthy write goes through on the same fsys.
	if err := next.WriteFileFS(dfs, path); err != nil {
		t.Fatalf("write after fault cleared: %v", err)
	}
	if got := readSnapFile(t, path); len(got.Events) != len(next.Events) {
		t.Fatalf("recovered write lost events: %d", len(got.Events))
	}
}

func TestSnapshotDirSyncFaultReportsNotTaken(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, server.CheckpointName)
	old := snapshotOf(t, 2)
	if err := old.WriteFileFS(wal.OSFS{}, path); err != nil {
		t.Fatalf("baseline write: %v", err)
	}

	dfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
	dfs.FailNextDirSyncs(1)
	next := snapshotOf(t, 4)
	if err := next.WriteFileFS(dfs, path); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("dir-fsync fault: %v, want injected fault", err)
	}

	// The rename happened, so the file may be old or new — but whichever
	// it is must parse, and the caller got an error, so it must not have
	// compacted the WAL past either state.
	got := readSnapFile(t, path)
	if n := len(got.Events); n != len(old.Events) && n != len(next.Events) {
		t.Fatalf("snapshot after dir-fsync fault holds %d events, want %d or %d",
			n, len(old.Events), len(next.Events))
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestSnapshotCreateFaultLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, server.CheckpointName)
	dfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
	dfs.FailNextENOSPC(1)
	snap := snapshotOf(t, 2)
	// ENOSPC fires on the temp file's first write; with no previous
	// snapshot a boot must find a clean directory, not a stub.
	if err := snap.WriteFileFS(dfs, path); err == nil {
		t.Fatal("torn first write reported success")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot path exists after torn first write: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// wal.OSFS is the production path; prove the same write succeeds there.
	if err := snap.WriteFileFS(wal.OSFS{}, path); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
}
