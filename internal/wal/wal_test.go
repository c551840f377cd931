package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opt Options) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func payloadN(i int) []byte { return []byte(fmt.Sprintf("record-%04d-%s", i, "xxxxxxxxxxxxxxxx")) }

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func readAll(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	pos := Pos{}
	for {
		batch, _, next, err := l.ReadFrom(pos, 64, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			return out
		}
		out = append(out, batch...)
		pos = next
	}
}

func TestAppendReadRoundTripAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several rotations.
	l, rec := mustOpen(t, dir, Options{SegmentBytes: 128, Policy: SyncNever})
	if !rec.Clean() || rec.Records != 0 {
		t.Fatalf("fresh log recovery = %+v", rec)
	}
	const n = 40
	appendN(t, l, n)
	if end := l.End(); end.Seg < 2 {
		t.Fatalf("no rotation happened: end %v", end)
	}
	got := readAll(t, l)
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, payloadN(i))
		}
	}
	if l.Records() != n {
		t.Errorf("Records() = %d, want %d", l.Records(), n)
	}
}

func TestReopenRecoversCleanLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	appendN(t, l, 20)
	endBefore := l.End()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{SegmentBytes: 256})
	if !rec.Clean() || rec.Records != 20 {
		t.Fatalf("recovery = %+v, want 20 clean records", rec)
	}
	if l2.End() != endBefore {
		t.Errorf("end after reopen = %v, want %v", l2.End(), endBefore)
	}
	// Appends continue where the log left off.
	if _, err := l2.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, l2)
	if len(got) != 21 || string(got[20]) != "after-reopen" {
		t.Fatalf("after reopen read %d records (last %q)", len(got), got[len(got)-1])
	}
}

// TestTornTailEveryOffset is the crash-restart property: for EVERY byte
// offset inside the last frame, truncating there and reopening must
// recover exactly the records before that frame — never an error, never
// a phantom record.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	l, _ := mustOpen(t, src, Options{Policy: SyncNever})
	const n = 8
	appendN(t, l, n)
	lastStart := int64(0)
	// Recompute the start of the last frame: all records equal-sized.
	frame := int64(headerSize + len(payloadN(0)))
	lastStart = frame * (n - 1)
	total := frame * n
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(src, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) != total {
		t.Fatalf("segment holds %d bytes, want %d", len(blob), total)
	}

	for cut := lastStart; cut < total; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The read-only reader sees what recovery will keep, and repairs
		// nothing.
		var seen int
		if end, err := ReadDir(dir, Pos{}, func([]byte, Pos) error { seen++; return nil }); err != nil || seen != n-1 || end != (Pos{1, lastStart}) {
			t.Fatalf("cut %d: ReadDir read %d records to %v (%v), want %d to %v", cut, seen, end, err, n-1, Pos{1, lastStart})
		}
		if size, _ := fileSize(OSFS{}, filepath.Join(dir, segName(1))); size != cut {
			t.Fatalf("cut %d: ReadDir left %d bytes", cut, size)
		}
		l2, rec, err := Open(dir, Options{Policy: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if rec.Records != n-1 {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, rec.Records, n-1)
		}
		if cut > lastStart && rec.Clean() {
			t.Fatalf("cut %d: partial frame reported clean", cut)
		}
		if got := l2.End(); got != (Pos{1, lastStart}) {
			t.Fatalf("cut %d: end %v, want %v", cut, got, Pos{1, lastStart})
		}
		got, _, _, err := l2.ReadFrom(Pos{}, n+1, 1<<20)
		if err != nil {
			t.Fatalf("cut %d: read: %v", cut, err)
		}
		if len(got) != n-1 {
			t.Fatalf("cut %d: read %d records, want %d", cut, len(got), n-1)
		}
		// The log must accept appends again after the repair.
		if _, err := l2.Append([]byte("post-crash")); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		l2.Close()
	}
}

// TestCorruptMiddleFlippedBit: a bit flip inside a committed record is
// detected at recovery and everything from that record on is dropped.
func TestCorruptMiddleFlippedBit(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncNever})
	appendN(t, l, 6)
	frame := int64(headerSize + len(payloadN(0)))
	l.Close()
	path := filepath.Join(dir, segName(1))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit of record 2.
	blob[2*frame+headerSize+3] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 2 || rec.Clean() {
		t.Fatalf("recovery = %+v, want 2 records and a repair", rec)
	}
}

// TestTornMiddleSegmentDropsLaterSegments: corruption in a non-final
// segment removes every later segment so the survivor set stays a prefix.
func TestTornMiddleSegmentDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128, Policy: SyncNever})
	appendN(t, l, 30)
	if l.End().Seg < 3 {
		t.Fatalf("want >= 3 segments, end %v", l.End())
	}
	l.Close()
	// Tear segment 2 mid-frame.
	path := filepath.Join(dir, segName(2))
	size, err := fileSize(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, size-5); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{SegmentBytes: 128, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.TornSegment != 2 || rec.DroppedSegments == 0 {
		t.Fatalf("recovery = %+v, want tear in segment 2 with later segments dropped", rec)
	}
	if end := l2.End(); end.Seg != 2 {
		t.Errorf("end %v, want appends to resume in segment 2", end)
	}
	got := readAll(t, l2)
	for i, p := range got {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("record %d = %q: survivors are not a prefix", i, p)
		}
	}
}

// TestReadDirRefusesATornMiddleSegment: a tear anywhere but in the last
// segment is corruption, not a crash's tail, and the read-only reader says
// so instead of stopping quietly. It reads from any frame boundary, and a
// position before the oldest segment is ErrCompacted.
func TestReadDirRefusesATornMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128, Policy: SyncNever})
	appendN(t, l, 30)
	want := readAll(t, l)
	mid := Pos{2, 0}
	l.Close()
	var got [][]byte
	if _, err := ReadDir(dir, Pos{}, func(p []byte, _ Pos) error { got = append(got, p); return nil }); err != nil || !equalRecords(got, want) {
		t.Fatalf("ReadDir of the intact log: %d records (%v), want %d", len(got), err, len(want))
	}
	got = nil
	if _, err := ReadDir(dir, mid, func(p []byte, _ Pos) error { got = append(got, p); return nil }); err != nil || len(got) == 0 || !bytes.Equal(got[len(got)-1], want[len(want)-1]) {
		t.Fatalf("ReadDir from %v: %d records (%v)", mid, len(got), err)
	}
	path := filepath.Join(dir, segName(2))
	size, _ := fileSize(OSFS{}, path)
	if err := os.Truncate(path, size-5); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir, Pos{}, func([]byte, Pos) error { return nil }); !errors.Is(err, ErrTorn) {
		t.Fatalf("ReadDir over a torn middle segment: %v, want ErrTorn", err)
	}
	if size2, _ := fileSize(OSFS{}, path); size2 != size-5 {
		t.Fatalf("ReadDir changed the torn segment: %d bytes", size2)
	}
	if err := os.Remove(filepath.Join(dir, segName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir, Pos{1, 0}, func([]byte, Pos) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadDir from a removed segment: %v, want ErrCompacted", err)
	}
}

func equalRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestRotateDropsTheHead: Rotate starts a fresh segment even when the
// active one is empty, so compacting before it always drops segment 1 —
// a read of all of history then answers ErrCompacted — and the log
// reopens and appends from there.
func TestRotateDropsTheHead(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncNever})
	start, err := l.Rotate()
	if err != nil || start != (Pos{2, 0}) {
		t.Fatalf("Rotate of an empty log = %v (%v), want 2:0", start, err)
	}
	appendN(t, l, 2)
	if n, err := l.CompactBefore(start); err != nil || n != 1 {
		t.Fatalf("compacted %d segments (%v), want 1", n, err)
	}
	if _, _, _, err := l.ReadFrom(Pos{Seg: 1}, 10, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read from 1:0 after the head went: %v, want ErrCompacted", err)
	}
	l.Close()
	l2, rec := mustOpen(t, dir, Options{Policy: SyncNever})
	if rec.Records != 2 || l2.FirstPos() != start {
		t.Fatalf("reopened with %d records from %v, want 2 from %v", rec.Records, l2.FirstPos(), start)
	}
	l2.Close()
	if _, err := l2.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after Close: %v, want ErrClosed", err)
	}
}

func TestCompactBefore(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128, Policy: SyncNever})
	appendN(t, l, 30)
	end := l.End()
	if end.Seg < 3 {
		t.Fatalf("want >= 3 segments, end %v", end)
	}
	removed, err := l.CompactBefore(end)
	if err != nil {
		t.Fatal(err)
	}
	if removed != int(end.Seg-1) {
		t.Errorf("removed %d segments, want %d", removed, end.Seg-1)
	}
	if first := l.FirstPos(); first.Seg != end.Seg {
		t.Errorf("first pos %v, want segment %d", first, end.Seg)
	}
	// Reads before the compaction horizon must say so explicitly.
	if _, _, _, err := l.ReadFrom(Pos{1, 0}, 10, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Errorf("read of compacted position: err = %v, want ErrCompacted", err)
	}
	// The surviving tail still reads, and the log still appends.
	if _, err := l.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := l.ReadFrom(Pos{end.Seg, 0}, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || string(got[len(got)-1]) != "post-compact" {
		t.Errorf("tail read after compaction = %d records", len(got))
	}
}

func TestWaitWakesOnAppend(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncNever})
	pos := l.End()
	done := make(chan bool, 1)
	go func() { done <- l.Wait(nil, pos, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := l.Append([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Error("Wait returned false after an append")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never woke")
	}
	// And times out quietly when nothing arrives.
	if l.Wait(nil, l.End(), 20*time.Millisecond) {
		t.Error("Wait reported data at the frontier")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"", SyncAlways}, {"interval", SyncInterval}, {"Never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}

	// SyncAlways: synced frontier tracks the end exactly.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 3)
	if l.Synced() != l.End() {
		t.Errorf("always: synced %v != end %v", l.Synced(), l.End())
	}

	// SyncInterval: the background tick catches up within a few periods.
	dir2 := t.TempDir()
	l2, _ := mustOpen(t, dir2, Options{Policy: SyncInterval, Interval: 5 * time.Millisecond})
	appendN(t, l2, 3)
	deadline := time.Now().Add(2 * time.Second)
	for l2.Synced() != l2.End() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if l2.Synced() != l2.End() {
		t.Errorf("interval: synced %v never reached end %v", l2.Synced(), l2.End())
	}
}

func TestAppendBounds(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{MaxRecordBytes: 64})
	if _, err := l.Append(nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("empty append: %v", err)
	}
	if _, err := l.Append(make([]byte, 65)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized append: %v", err)
	}
	if _, err := l.Append(make([]byte, 64)); err != nil {
		t.Errorf("bound-sized append: %v", err)
	}
}

// Append reuses one frame buffer and signals the wake channel its waiter
// parked, which the waiter made once: with no reader parked it allocates
// nothing, and with a reader parked before every append, woken by each one
// and parking again, neither side allocates.
func TestAppendAllocatesOnlyTheWakeChannel(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	payload := payloadN(1)
	n := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("Append with no reader waiting allocates %.1f objects, want 0", n)
	}
	r := l.NewReader()
	defer r.Close()
	woke := make(chan bool)
	stop := make(chan struct{})
	go func() {
		defer close(woke)
		for pos := l.End(); ; pos = l.End() {
			ok := r.Wait(stop, pos, 5*time.Second)
			select {
			case woke <- ok:
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		for range woke {
		}
	}()
	parked := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.waiters) > 0
	}
	n = testing.AllocsPerRun(100, func() {
		for !parked() {
			runtime.Gosched()
		}
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		if !<-woke { // a Wait never woken times out: false
			t.Fatal("the parked Wait was not woken by an append")
		}
	})
	if n != 0 {
		t.Fatalf("Append with a reader parked allocates %.1f objects, want 0", n)
	}
}

func TestEpochMeta(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	if e, err := l.LoadEpoch(); err != nil || e != 0 {
		t.Fatalf("LoadEpoch on empty dir = %d, %v", e, err)
	}
	if err := l.SaveEpoch(7); err != nil {
		t.Fatal(err)
	}
	if e, err := l.LoadEpoch(); err != nil || e != 7 {
		t.Fatalf("LoadEpoch = %d, %v, want 7", e, err)
	}
}

func TestReadFromResolvesZeroPos(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	appendN(t, l, 2)
	got, start, next, err := l.ReadFrom(Pos{}, 10, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if start != (Pos{1, 0}) {
		t.Errorf("resolved start = %v, want 1:0", start)
	}
	if len(got) != 2 || next != l.End() {
		t.Errorf("read %d records, next %v (end %v)", len(got), next, l.End())
	}
}

func TestSizeBetween(t *testing.T) {
	// Small segments so the range spans a rotation.
	l, _ := mustOpen(t, t.TempDir(), Options{SegmentBytes: 128, Policy: SyncNever})
	var ends []Pos
	for i := 0; i < 12; i++ {
		p, err := l.Append(payloadN(i))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, p)
	}
	frame := int64(headerSize + len(payloadN(0)))
	end := l.End()
	if end.Seg < 2 {
		t.Fatalf("expected rotation, end = %v", end)
	}

	// Full log: every record's frame bytes, wherever the segments split.
	if got, err := l.SizeBetween(Pos{}, end); err != nil || got != 12*frame {
		t.Fatalf("SizeBetween(zero, end) = %d, %v, want %d", got, err, 12*frame)
	}
	// A suffix across the rotation boundary.
	if got, err := l.SizeBetween(ends[4], end); err != nil || got != 7*frame {
		t.Fatalf("SizeBetween(after 5th, end) = %d, %v, want %d", got, err, 7*frame)
	}
	// Zero "to" clamps to the frontier; beyond-end clamps too.
	if got, err := l.SizeBetween(ends[4], Pos{}); err != nil || got != 7*frame {
		t.Fatalf("SizeBetween(after 5th, zero) = %d, %v, want %d", got, err, 7*frame)
	}
	if got, err := l.SizeBetween(ends[4], Pos{end.Seg + 3, 0}); err != nil || got != 7*frame {
		t.Fatalf("SizeBetween clamped = %d, %v, want %d", got, err, 7*frame)
	}
	// Backwards and empty ranges are 0.
	if got, err := l.SizeBetween(end, ends[4]); err != nil || got != 0 {
		t.Fatalf("backwards SizeBetween = %d, %v, want 0", got, err)
	}
	if got, err := l.SizeBetween(end, end); err != nil || got != 0 {
		t.Fatalf("empty SizeBetween = %d, %v, want 0", got, err)
	}
	// A compacted "from" reports 0 — the reader must resync anyway.
	if _, err := l.CompactBefore(end); err != nil {
		t.Fatal(err)
	}
	if got, err := l.SizeBetween(Pos{1, 0}, end); err != nil || got != 0 {
		t.Fatalf("compacted SizeBetween = %d, %v, want 0", got, err)
	}
}
