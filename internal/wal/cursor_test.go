package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// reopen closes l and recovers the same directory the way a reboot does.
func reopen(t *testing.T, l *Log, opt Options) (*Log, Recovery) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return mustOpen(t, l.Dir(), opt)
}

func TestCursorRecordRoundTrip(t *testing.T) {
	opt := Options{Policy: SyncNever}
	l, _ := mustOpen(t, t.TempDir(), opt)
	if !l.Cursor().IsZero() {
		t.Fatalf("fresh log cursor = %v, want zero", l.Cursor())
	}
	// Saves alternate between the slots, so after any number of them the
	// newest record wins at boot.
	var want Pos
	for i := 1; i <= 5; i++ {
		appendN(t, l, 1)
		want = Pos{Seg: 7, Off: int64(100 * i)}
		if err := l.SaveCursor(want, l.End()); err != nil {
			t.Fatal(err)
		}
		if l.Cursor() != want {
			t.Fatalf("Cursor after save %d = %v, want %v", i, l.Cursor(), want)
		}
		var rec Recovery
		l, rec = reopen(t, l, opt)
		if l.Cursor() != want || rec.StaleCursors != 0 {
			t.Fatalf("reopen after save %d: cursor %v (stale %d), want %v", i, l.Cursor(), rec.StaleCursors, want)
		}
	}
	if fi, err := os.Stat(filepath.Join(l.Dir(), cursorFile)); err != nil || fi.Size() != cursorFileBytes {
		t.Fatalf("cursor file: %v, size %d, want the preallocated %d", err, fi.Size(), cursorFileBytes)
	}
}

// A record that reached the disk ahead of the appends it covers — what a
// power loss leaves under any sync policy, since the record is never
// fsynced against the segments — must rewind the cursor, never carry it
// past the recovered log, and must stay dead once the log regrows.
func TestCursorRecordPastFrontierIsRefusedAndErased(t *testing.T) {
	opt := Options{Policy: SyncInterval}
	l, _ := mustOpen(t, t.TempDir(), opt)
	appendN(t, l, 3)
	older, olderEnd := Pos{1, 300}, l.End()
	if err := l.SaveCursor(older, olderEnd); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	if err := l.SaveCursor(Pos{1, 600}, l.End()); err != nil {
		t.Fatal(err)
	}
	seg := l.segPath(1)

	// Lose one frame behind the newest record: the older slot takes over.
	l.Close()
	if err := os.Truncate(seg, l.End().Off-1); err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, l.Dir(), opt)
	if rec.StaleCursors != 1 || l.Cursor() != older {
		t.Fatalf("after losing the tail: cursor %v, %d stale, want %v and 1 (%v)", l.Cursor(), rec.StaleCursors, older, rec)
	}
	if l.End().Less(olderEnd) {
		t.Fatalf("test bug: frontier %v fell behind the older record's %v", l.End(), olderEnd)
	}

	// The log regrows past the refused record's local end; a crash before
	// the next save must still resume from the older record.
	appendN(t, l, 6)
	l, rec = reopen(t, l, opt)
	if rec.StaleCursors != 0 || l.Cursor() != older {
		t.Fatalf("after regrowth: cursor %v, %d stale, want %v and 0", l.Cursor(), rec.StaleCursors, older)
	}

	// Lose everything behind both records: no cursor at all, so the
	// follower pulls from the beginning (or re-seeds) rather than skipping.
	if err := l.SaveCursor(Pos{1, 900}, l.End()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Truncate(seg, 0); err != nil {
		t.Fatal(err)
	}
	l, rec = mustOpen(t, l.Dir(), opt)
	if rec.StaleCursors != 2 || !l.Cursor().IsZero() {
		t.Fatalf("after losing the log: cursor %v, %d stale, want zero and 2", l.Cursor(), rec.StaleCursors)
	}
	// Saving still works after the erasure, and sequences past the erased ones.
	appendN(t, l, 1)
	if err := l.SaveCursor(Pos{1, 50}, l.End()); err != nil {
		t.Fatal(err)
	}
	if l, _ = reopen(t, l, opt); l.Cursor() != (Pos{1, 50}) {
		t.Fatalf("cursor after re-save = %v", l.Cursor())
	}
}

func TestSaveCursorAfterClose(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	l.Close()
	if err := l.SaveCursor(Pos{1, 1}, Pos{1, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SaveCursor on a closed log = %v, want ErrClosed", err)
	}
}
