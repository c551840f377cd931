package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// stallingCursorFS parks every write to the cursor record, once armed,
// until release closes; the WAL's segments pass straight to the OS.
type stallingCursorFS struct {
	wal.OSFS
	mu      sync.Mutex
	armed   bool
	stalled chan struct{} // closed when the first armed write parks
	release chan struct{}
}

type stallingFile struct {
	wal.File
	fs *stallingCursorFS
}

func (f stallingFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	armed := f.fs.armed
	if armed {
		f.fs.armed = false
		close(f.fs.stalled)
	}
	f.fs.mu.Unlock()
	if armed {
		<-f.fs.release
	}
	return f.File.Write(p)
}

func (c *stallingCursorFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.OSFS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, "cursor.rec") {
		return f, err
	}
	return stallingFile{f, c}, nil
}

// TestFollowerAcksBeforeItsCursorRecord stalls the follower's cursor-record
// write and submits durably: the follower's ack must reach the primary
// while that write is still parked, since the ack vouches for the appends
// the apply made, not for the record that lets a restart resume past them.
func TestFollowerAcksBeforeItsCursorRecord(t *testing.T) {
	// No heartbeat batch may take the stalled write before the submit's.
	server.SetStreamClocks(t, time.Minute, 2*time.Minute)
	primary := newTestServer(t, syncPrimary(t, openTestWAL(t)))
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	fsys := &stallingCursorFS{stalled: make(chan struct{}), release: make(chan struct{})}
	fwal, _, err := wal.Open(t.TempDir(), wal.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fwal.Close() })
	fcfg := uniformConfig(nil)
	fcfg.WAL, fcfg.Follow, fcfg.ReplID = fwal, ts.URL, "f1"
	follower := newTestServer(t, fcfg)
	if err := follower.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	durableOn(t, primary, 0) // the stream is up
	waitFor(t, "the first cursor record", func() bool { return fwal.Cursor() == primary.ReplicationStatus().WALEnd })

	released := false
	release := func() {
		if !released {
			released = true
			close(fsys.release)
		}
	}
	defer release()
	fsys.mu.Lock()
	fsys.armed = true
	fsys.mu.Unlock()
	// The record's write cannot finish before release, which only comes
	// after the submit has its answer.
	res := durableOn(t, primary, 1)
	if res.Durability != wire.DurabilityReplicated {
		t.Fatalf("durable submit answered %q while the cursor record was stalled, want %q", res.Durability, wire.DurabilityReplicated)
	}
	select {
	case <-fsys.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the follower never wrote the cursor record of the submit's batch")
	}
	release()
	waitFor(t, "the stalled cursor record", func() bool { return fwal.Cursor() == primary.ReplicationStatus().WALEnd })
}

// frameFeed plays recorded stream frames to a follower and swallows its
// cursor frames.
type frameFeed struct {
	*bytes.Reader
	acks int
}

func (f *frameFeed) Write(p []byte) (int, error) {
	f.acks++
	return len(p), nil
}

// TestFollowerStreamAllocatesOnlyKeys plays a primary's stream — each batch
// a keyed accept and the expiry of the one before — down a follower's
// stream loop. Once its scratch, its free lists and its retention queues are
// warm, a batch costs one allocation: the key the idempotency cache files.
func TestFollowerStreamAllocatesOnlyKeys(t *testing.T) {
	const warm, measured = 64, 256
	clk := &fakeClock{}
	pwal, _, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pwal.Close() })
	pcfg := uniformConfig(clk)
	pcfg.WAL = pwal
	primary := newTestServer(t, pcfg)
	var frames [][]byte
	pos := wal.Pos{Seg: 1}
	for i := range warm + measured {
		now := primary.Now()
		d, err := primary.Submit(server.Submission{
			From: i % 2, To: (i / 2) % 2, Volume: units.GB, MaxRate: 200 * units.MBps,
			NotBefore: now, Deadline: now + 100, IdempotencyKey: fmt.Sprintf("key-%d", i),
		})
		if err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
		clk.advance(200 * time.Second) // the next submit fires this one's expiry
		payloads, start, next, err := pwal.ReadFrom(pos, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, cluster.AppendReplBatch(nil, &cluster.ShippedBatch{Epoch: 1, From: start, Next: next, End: next, Events: payloads}))
		pos = next
	}

	fwal, _, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fwal.Close() })
	fcfg := uniformConfig(clk)
	fcfg.WAL, fcfg.Follow = fwal, "http://127.0.0.1:0" // never started: the test plays the stream
	fcfg.FinishedRetention = 8
	follower := newTestServer(t, fcfg)
	play := func(frames [][]byte) *frameFeed {
		feed := &frameFeed{Reader: bytes.NewReader(bytes.Join(frames, nil))}
		if err := follower.FollowStream(feed); !strings.HasSuffix(err.Error(), io.EOF.Error()) {
			t.Fatalf("stream ended with %v, want the end of the recording", err)
		}
		if feed.acks != len(frames) {
			t.Fatalf("%d cursor frames for %d batches", feed.acks, len(frames))
		}
		return feed
	}
	play(frames[:warm])
	if raceEnabled {
		play(frames[warm:])
		return // the race detector's instrumentation defeats the entry pool
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	play(frames[warm:])
	runtime.ReadMemStats(&after)
	if fwal.Cursor() != pos || fwal.End() != pos {
		t.Fatalf("follower at cursor %v, end %v; want both at %v", fwal.Cursor(), fwal.End(), pos)
	}
	if per := (after.Mallocs - before.Mallocs) / measured; per != 1 {
		t.Fatalf("a shipped keyed accept costs the follower %d allocations, want 1 (its key)", per)
	}
}
