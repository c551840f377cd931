package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sizedPayload is record i of a log whose records vary in size, so frame
// boundaries fall everywhere in a segment and rotations split unevenly.
func sizedPayload(i int) []byte {
	return []byte(fmt.Sprintf("rec-%03d-%s", i, bytes.Repeat([]byte{'a' + byte(i%26)}, i*7%53)))
}

// recordsOf reads dir with ReadDir from pos: each payload and the position
// after it.
func recordsOf(t *testing.T, dir string, pos Pos) (payloads [][]byte, nexts []Pos) {
	t.Helper()
	if _, err := ReadDir(dir, pos, func(p []byte, next Pos) error {
		payloads = append(payloads, bytes.Clone(p))
		nexts = append(nexts, next)
		return nil
	}); err != nil {
		t.Fatalf("ReadDir from %v: %v", pos, err)
	}
	return payloads, nexts
}

// TestReaderMatchesReadDir is the differential test of the stream reader:
// from every frame boundary of a multi-segment log — the start of each
// segment included — one reused Reader returns, batch after batch, the same
// payloads and next positions as ReadDir, and a record at a time the same
// position after every record.
func TestReaderMatchesReadDir(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256, Policy: SyncNever})
	for i := 0; i < 60; i++ {
		if _, err := l.Append(sizedPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.End().Seg < 4 {
		t.Fatalf("want several segments, end %v", l.End())
	}
	_, nexts := recordsOf(t, dir, Pos{})
	starts := []Pos{{Seg: 1}}
	for _, p := range nexts {
		starts = append(starts, p, Pos{Seg: p.Seg + 1}) // a boundary, and a segment start
	}
	r := l.NewReader()
	defer r.Close()
	for _, from := range starts {
		if l.End().Less(from) {
			continue
		}
		wantP, wantN := recordsOf(t, dir, from)
		for _, batch := range []int{1, 3, 512} {
			var gotP [][]byte
			pos := from
			for {
				payloads, start, next, err := r.Read(pos, batch, 0)
				if err != nil {
					t.Fatalf("from %v batch %d: read at %v: %v", from, batch, pos, err)
				}
				if start != pos {
					t.Fatalf("from %v: start %v, want %v", from, start, pos)
				}
				if len(payloads) == 0 {
					break
				}
				if batch == 1 && next != wantN[len(gotP)] {
					t.Fatalf("from %v: record %d ends at %v, ReadDir says %v", from, len(gotP), next, wantN[len(gotP)])
				}
				for _, p := range payloads {
					gotP = append(gotP, bytes.Clone(p)) // valid until the next Read
				}
				pos = next
			}
			if len(gotP) != len(wantP) {
				t.Fatalf("from %v batch %d: %d records, ReadDir read %d", from, batch, len(gotP), len(wantP))
			}
			for i := range gotP {
				if !bytes.Equal(gotP[i], wantP[i]) {
					t.Fatalf("from %v batch %d: record %d = %q, ReadDir read %q", from, batch, i, gotP[i], wantP[i])
				}
			}
			if len(wantN) > 0 && pos != wantN[len(wantN)-1] {
				t.Fatalf("from %v batch %d: ended at %v, ReadDir at %v", from, batch, pos, wantN[len(wantN)-1])
			}
		}
	}
}

// TestReaderRefusesCompactedAndCorrupt: a position whose segment was
// compacted away is ErrCompacted — also for a reader holding that segment
// open — and a flipped bit inside a committed frame is refused as
// corruption, not read past or taken for the end of the log.
func TestReaderRefusesCompactedAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256, Policy: SyncNever})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(sizedPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	r := l.NewReader()
	defer r.Close()
	if _, _, _, err := r.Read(Pos{Seg: 1}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CompactBefore(Pos{Seg: 3}); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []Pos{{Seg: 1}, {Seg: 2, Off: 0}} {
		if _, _, _, err := r.Read(pos, 4, 0); !errors.Is(err, ErrCompacted) {
			t.Errorf("read at compacted %v: %v, want ErrCompacted", pos, err)
		}
	}

	// Flip a payload bit of segment 3's second record.
	_, nexts := recordsOf(t, dir, Pos{Seg: 3})
	path := filepath.Join(dir, segName(3))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[nexts[0].Off+headerSize+2] ^= 0x10
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []Pos{{Seg: 3}, nexts[0]} {
		payloads, _, _, err := r.Read(pos, 512, 0)
		if !errors.Is(err, ErrTorn) || errors.Is(err, ErrCompacted) {
			t.Errorf("read over the corrupt frame from %v: %d records, %v; want a corruption error", pos, len(payloads), err)
		}
	}
	// The record before it still reads.
	if payloads, _, next, err := r.Read(Pos{Seg: 3}, 1, 0); err != nil || len(payloads) != 1 || next != nexts[0] {
		t.Errorf("read before the corrupt frame: %d records to %v, %v", len(payloads), next, err)
	}
}

// TestAppendBatchIsByteIdenticalToAppends: a group that straddles
// SegmentBytes splits exactly where one Append per record would rotate, so
// the segment files, the end and the record count come out the same.
func TestAppendBatchIsByteIdenticalToAppends(t *testing.T) {
	one, grouped := t.TempDir(), t.TempDir()
	opt := Options{SegmentBytes: 200, Policy: SyncNever}
	a, _ := mustOpen(t, one, opt)
	b, _ := mustOpen(t, grouped, opt)
	var batch Batch
	i := 0
	for size := 1; size <= 9; size++ {
		batch.Reset()
		for k := 0; k < size; k++ {
			p := sizedPayload(i)
			i++
			if _, err := a.Append(p); err != nil {
				t.Fatal(err)
			}
			batch.Add(p)
		}
		end, err := b.AppendBatch(&batch)
		if err != nil {
			t.Fatal(err)
		}
		if end != a.End() {
			t.Fatalf("group of %d ends at %v, the appends at %v", size, end, a.End())
		}
	}
	if a.End().Seg < 4 || a.Records() != b.Records() {
		t.Fatalf("%d segments, records %d vs %d", a.End().Seg, a.Records(), b.Records())
	}
	for seg := uint64(1); seg <= a.End().Seg; seg++ {
		x, err1 := os.ReadFile(filepath.Join(one, segName(seg)))
		y, err2 := os.ReadFile(filepath.Join(grouped, segName(seg)))
		if err1 != nil || err2 != nil || !bytes.Equal(x, y) {
			t.Fatalf("segment %d differs (%d vs %d bytes; %v, %v)", seg, len(x), len(y), err1, err2)
		}
	}
	// A record out of bounds refuses the whole group.
	batch.Reset()
	batch.Add([]byte("fine"))
	batch.Add(nil)
	if _, err := b.AppendBatch(&batch); !errors.Is(err, ErrTooLarge) || b.End() != a.End() {
		t.Fatalf("group with an empty record: %v, end %v", err, b.End())
	}
}

// TestReaderSteadyStateAllocatesNothing: a stream caught up on the log
// reads each new batch and waits for the next without allocating.
func TestReaderSteadyStateAllocatesNothing(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncNever})
	r := l.NewReader()
	defer r.Close()
	payload := payloadN(1)
	pos := l.End()
	step := func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		if !r.Wait(nil, pos, time.Second) {
			t.Fatal("Wait missed the append")
		}
		got, _, next, err := r.Read(pos, 512, 0)
		if err != nil || len(got) != 1 || !bytes.Equal(got[0], payload) {
			t.Fatalf("read %d records, %v", len(got), err)
		}
		pos = next
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a shipped batch allocates %.1f objects, want 0", n)
	}
	// The reused deadline still lapses.
	if r.Wait(nil, pos, 5*time.Millisecond) {
		t.Fatal("Wait reported data at the frontier")
	}
	step()
}
