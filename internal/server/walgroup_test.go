package server_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// countingFS counts the writes and fsyncs that reach the WAL's segment
// files; everything else passes straight to the OS.
type countingFS struct {
	wal.OSFS
	writes, syncs atomic.Int64
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) { f.fs.writes.Add(1); return f.File.Write(p) }
func (f countingFile) Sync() error                 { f.fs.syncs.Add(1); return f.File.Sync() }

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.OSFS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return f, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) counts() (writes, syncs int64) { return c.writes.Load(), c.syncs.Load() }

// batchOf is n submissions over the four pairs of a 2×2 platform, each
// with a window of window seconds from now.
func batchOf(n int, now, window units.Time) []server.Submission {
	subs := make([]server.Submission, n)
	for i := range subs {
		subs[i] = server.Submission{
			From: i % 2, To: (i / 2) % 2, Volume: 1 * units.GB, MaxRate: 200 * units.MBps,
			NotBefore: now, Deadline: now + window,
		}
	}
	return subs
}

// TestBatchIsOneWALWrite: a 16-item batch hands the WAL one write, and under
// -wal-fsync=always one fsync; the expiries one clock advance fires take one
// write too.
func TestBatchIsOneWALWrite(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			fsys := &countingFS{}
			l, _, err := wal.Open(t.TempDir(), wal.Options{Policy: policy, FS: fsys, Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			clk := &fakeClock{}
			cfg := uniformConfig(clk)
			cfg.WAL = l
			srv := newTestServer(t, cfg)
			for round := 0; round < 3; round++ {
				// The clock's advance fires the previous round's 16 expiries,
				// which reach the WAL in one write of their own.
				w0, _ := fsys.counts()
				r0 := l.Records()
				now := srv.Now()
				if w, _ := fsys.counts(); w-w0 != int64(min(round, 1)) || l.Records()-r0 != uint64(16*min(round, 1)) {
					t.Fatalf("round %d: the advance logged %d records in %d writes", round, l.Records()-r0, w-w0)
				}
				w0, s0 := fsys.counts()
				r0 = l.Records()
				res, err := srv.SubmitBatch(batchOf(16, now, 20))
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range res {
					if r.Err != nil || !r.Decision.Accepted {
						t.Fatalf("round %d item %d: %+v", round, i, r)
					}
				}
				w, s := fsys.counts()
				if logged := l.Records() - r0; logged != 16 || w-w0 != 1 {
					t.Fatalf("round %d: %d records in %d writes, want 16 in 1", round, logged, w-w0)
				}
				if want := map[wal.SyncPolicy]int64{wal.SyncAlways: 1}[policy]; s-s0 != want {
					t.Fatalf("round %d: %d fsyncs, want %d", round, s-s0, want)
				}
				clk.advance(30 * time.Second)
			}
		})
	}
}

// TestHoldListIsOneWALWrite: a CONFIRM list of eight holds hands the WAL
// one write, and under -wal-fsync=always one fsync; so does the ABORT list
// that releases them. A RESERVE list appends hold by hold, so that it stops
// at the first hold a fault poisons the WAL on.
func TestHoldListIsOneWALWrite(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			fsys := &countingFS{}
			l, _, err := wal.Open(t.TempDir(), wal.Options{Policy: policy, FS: fsys, Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			cfg := uniformConfig(&fakeClock{})
			cfg.WAL = l
			srv := newTestServer(t, cfg)
			const n = 8
			list := make([]wire.HoldReserveJSON, n)
			refs := make([]wire.HoldRef, n)
			for i := range list {
				list[i] = wire.HoldReserveJSON{
					Hold: fmt.Sprintf("h%d", i), Side: trace.HoldSideIngress,
					Point: 0, PeerPoint: 1, TTLS: 5,
					VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100,
				}
				refs[i].Key = []byte(list[i].Hold)
			}
			w0, _ := fsys.counts()
			if _, err := srv.HoldReserve(list); err != nil {
				t.Fatal(err)
			}
			if w, _ := fsys.counts(); w-w0 != n {
				t.Fatalf("a reserve list of %d holds took %d writes, want %d", n, w-w0, n)
			}
			wantSyncs := map[wal.SyncPolicy]int64{wal.SyncAlways: 1}[policy]
			for _, call := range []struct {
				name string
				run  func([]wire.HoldRef) ([]wire.HoldStateJSON, error)
				want string
			}{{"confirm", srv.HoldConfirm, "confirmed"}, {"abort", srv.HoldAbort, "aborted"}} {
				w0, s0 := fsys.counts()
				r0 := l.Records()
				sts, err := call.run(refs)
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range sts {
					if st.Code != 0 || st.State != call.want {
						t.Fatalf("%s item %d: %+v", call.name, i, st)
					}
				}
				w, s := fsys.counts()
				if logged := l.Records() - r0; logged != n || w-w0 != 1 || s-s0 != wantSyncs {
					t.Fatalf("%s list: %d records in %d writes with %d fsyncs, want %d in 1 with %d",
						call.name, logged, w-w0, s-s0, n, wantSyncs)
				}
			}
		})
	}
}

// TestFollowerApplyIsOneWALWrite: a follower applying a 16-record shipped
// batch appends it in one write.
func TestFollowerApplyIsOneWALWrite(t *testing.T) {
	clk := &fakeClock{}
	pcfg := uniformConfig(clk)
	pcfg.WAL = openTestWAL(t)
	primary := newTestServer(t, pcfg)
	if _, err := primary.SubmitBatch(batchOf(16, primary.Now(), 1000)); err != nil {
		t.Fatal(err)
	}
	payloads, start, next, err := pcfg.WAL.ReadFrom(wal.Pos{}, 16, 0)
	if err != nil || len(payloads) != 16 {
		t.Fatalf("read %d primary records, %v", len(payloads), err)
	}

	fsys := &countingFS{}
	fwal, _, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncAlways, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer fwal.Close()
	fcfg := uniformConfig(clk)
	fcfg.WAL, fcfg.Follow = fwal, "http://127.0.0.1:0" // never started: the batch is applied directly
	follower := newTestServer(t, fcfg)
	w0, s0 := fsys.counts()
	if err := follower.ApplyShipped(cluster.ShippedBatch{Epoch: 1, From: start, Next: next, End: next, Events: payloads}); err != nil {
		t.Fatal(err)
	}
	if w, s := fsys.counts(); w-w0 != 1 || s-s0 != 1 || fwal.Records() != 16 {
		t.Fatalf("applying 16 records: %d writes, %d fsyncs, %d records; want 1, 1, 16", w-w0, s-s0, fwal.Records())
	}
	if fwal.End() != next || fwal.Cursor() != next {
		t.Fatalf("follower ends at %v with cursor %v, want both at %v", fwal.End(), fwal.Cursor(), next)
	}
}

// TestGroupedWALsStayByteIdentical: batches whose groups straddle the
// segment size split where one append per record would rotate, on the
// primary and on the follower that streams them, so the two WALs hold the
// same segment files byte for byte.
func TestGroupedWALsStayByteIdentical(t *testing.T) {
	clk := &fakeClock{}
	pcfg := uniformConfig(clk)
	pcfg.WAL = openSmallWAL(t)
	primary := newTestServer(t, pcfg)
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()
	fcfg := uniformConfig(clk)
	fcfg.WAL, fcfg.Follow = openSmallWAL(t), ts.URL
	follower := newTestServer(t, fcfg)
	if err := follower.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if _, err := primary.SubmitBatch(batchOf(5+round, primary.Now(), 10)); err != nil {
			t.Fatal(err)
		}
		clk.advance(7 * time.Second)
	}
	if pcfg.WAL.End().Seg < 4 {
		t.Fatalf("primary WAL ended at %v, want several rotations", pcfg.WAL.End())
	}
	waitFor(t, "follower WAL reaching the primary's end", func() bool { return fcfg.WAL.End() == pcfg.WAL.End() })
	want, got := segmentFiles(t, pcfg.WAL.Dir()), segmentFiles(t, fcfg.WAL.Dir())
	if len(got) != len(want) {
		t.Fatalf("follower has %d segments, primary %d", len(got), len(want))
	}
	for name, blob := range want {
		if !bytes.Equal(got[name], blob) {
			t.Fatalf("%s differs (%d vs %d bytes)", filepath.Base(name), len(got[name]), len(blob))
		}
	}
}
