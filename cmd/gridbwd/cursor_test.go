package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// The follower's cursor record is written without an fsync, after the
// frames it covers and outside any lock. These tests pin what that may
// cost: a process crash rewinds at most the batch whose record was not
// written yet, a power loss rewinds further but never lets the cursor
// run ahead of the follower's own log, and re-delivery is harmless.

// cursorRig is a WAL-backed primary behind HTTP and a follower driven by
// hand — ApplyShipped of batches pulled explicitly — so each test decides
// exactly where the follower's first life ends. The second life is the
// real boot path, following the live primary.
type cursorRig struct {
	t        *testing.T
	primary  *server.Server
	pwal     *wal.Log
	url      string
	fdir     string
	opt      wal.Options
	fwal     *wal.Log
	follower *server.Server
}

func newCursorRig(t *testing.T, policy wal.SyncPolicy) *cursorRig {
	t.Helper()
	r := &cursorRig{t: t, fdir: t.TempDir(), opt: wal.Options{Policy: policy}}
	var err error
	if r.pwal, _, err = wal.Open(t.TempDir(), r.opt); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.pwal.Close() })
	if r.primary, _, err = bootServer(walBootConfig(r.pwal)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.primary.Close() })
	ts := httptest.NewServer(r.primary.Handler())
	t.Cleanup(ts.Close)
	r.url = ts.URL

	if r.fwal, _, err = wal.Open(r.fdir, r.opt); err != nil {
		t.Fatal(err)
	}
	cfg := walBootConfig(r.fwal).platformConfig()
	cfg.Follow = r.url // never started: the first life is driven by hand
	if r.follower, err = server.New(cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// decide makes the primary log accepts, a reject and a cancel.
func (r *cursorRig) decide(accepts int) {
	r.t.Helper()
	var last server.Decision
	for i := 0; i < accepts; i++ {
		d, err := r.primary.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2,
			Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
		})
		if err != nil || !d.Accepted {
			r.t.Fatalf("submit: %v %+v", err, d)
		}
		last = d
	}
	if d, err := r.primary.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.PB, Deadline: 10, MaxRate: 1 * units.GBps}); err != nil || d.Accepted {
		r.t.Fatalf("infeasible submit: %v %+v", err, d)
	}
	if _, err := r.primary.Cancel(last.ID); err != nil {
		r.t.Fatal(err)
	}
}

// ship pulls everything past the follower's cursor and applies it as one
// batch, returning the batch.
func (r *cursorRig) ship() wire.ShippedBatch {
	r.t.Helper()
	cur := r.follower.ReplicationStatus().Cursor
	resp, err := http.Get(fmt.Sprintf("%s/v1/replication/pull?seg=%d&off=%d&max=4096", r.url, cur.Seg, cur.Off))
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	var b wire.ShippedBatch
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil || resp.StatusCode != http.StatusOK || len(b.Events) == 0 {
		r.t.Fatalf("pull from %v: HTTP %d, %d events, %v", cur, resp.StatusCode, len(b.Events), err)
	}
	if err := r.follower.ApplyShipped(b); err != nil {
		r.t.Fatal(err)
	}
	return b
}

// crash ends the follower's first life. The caller then edits the
// directory into what the crash left behind.
func (r *cursorRig) crash() {
	r.follower.Close()
	r.fwal.Close()
}

// reboot boots the follower's directory through bootServer, which starts
// the real pull loop, and waits until it has converged on the primary. It
// returns the cursor the boot resumed from and what recovery reported.
func (r *cursorRig) reboot() (wal.Pos, wal.Recovery) {
	r.t.Helper()
	l, rec, err := wal.Open(r.fdir, r.opt)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { l.Close() })
	resumed := l.Cursor()
	if l.End().Less(resumed) {
		// Follower and primary log the same frames from position 1:0, so
		// the two position spaces coincide: a cursor past the local end
		// would skip history the follower does not hold.
		r.t.Fatalf("resumed cursor %v is past the recovered local frontier %v (%v)", resumed, l.End(), rec)
	}
	bc := walBootConfig(l)
	bc.follow = r.url
	f, how, err := bootServer(bc)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { f.Close() })
	if !strings.Contains(how, "following") {
		r.t.Fatalf("boot path = %q, want following", how)
	}
	waitUntil(r.t, "rebooted follower converging", func() bool {
		rs := f.ReplicationStatus()
		return rs.Cursor == r.pwal.End() && rs.LagBytes == 0
	})
	pLive, fLive := r.primary.LiveReservations(), f.LiveReservations()
	if len(fLive) != len(pLive) {
		r.t.Fatalf("follower holds %d live reservations, primary %d", len(fLive), len(pLive))
	}
	for i := range pLive {
		if fLive[i].Req != pLive[i].Req || fLive[i].Grant != pLive[i].Grant {
			r.t.Fatalf("live[%d] diverges:\n  follower %+v\n  primary  %+v", i, fLive[i], pLive[i])
		}
	}
	if err := f.VerifyInvariant(); err != nil {
		r.t.Fatal(err)
	}
	return resumed, rec
}

// A crash after a batch's frames are appended but before its cursor record
// is written resumes one batch back; the re-delivered batch books nothing
// twice.
func TestCrashBetweenAppendAndCursorRecordRewindsOneBatch(t *testing.T) {
	r := newCursorRig(t, wal.SyncAlways)
	r.decide(3)
	first := r.ship()
	recPath := filepath.Join(r.fdir, "cursor.rec")
	before, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	r.decide(2)
	second := r.ship()
	r.crash()
	// The second batch is in the follower's WAL; its cursor write never
	// happened.
	if err := os.WriteFile(recPath, before, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, rec := r.reboot()
	if resumed != first.Next || first.Next == second.Next {
		t.Fatalf("boot resumed at %v, want the first batch's end %v (the second ended at %v)", resumed, first.Next, second.Next)
	}
	if rec.StaleCursors != 0 {
		t.Fatalf("recovery refused a cursor record after a mere process crash: %v", rec)
	}
}

// A power loss can keep a cursor record and lose frames it covers: the
// record file and the segments are written back in whatever order the OS
// likes, under every sync policy. Boot must then resume from a record the
// surviving log still backs, or from the beginning — never skip. (The
// fsynced cursor file this replaces failed exactly here under
// fsync=interval: it named the lost frames' end.)
func TestPowerLossNeverResumesPastTheLocalLog(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keep      func(ends []wal.Pos) int64 // how much of the follower's segment survives
		wantStale int
		resume    func(batches []wire.ShippedBatch) wal.Pos
	}{
		{"tail behind the newest record lost",
			func(ends []wal.Pos) int64 { return ends[2].Off - 1 }, 1,
			func(b []wire.ShippedBatch) wal.Pos { return b[1].Next }},
		{"tail behind both records lost",
			func(ends []wal.Pos) int64 { return ends[0].Off + 3 }, 2,
			func(b []wire.ShippedBatch) wal.Pos { return wal.Pos{} }},
		{"whole log lost",
			func(ends []wal.Pos) int64 { return 0 }, 2,
			func(b []wire.ShippedBatch) wal.Pos { return wal.Pos{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCursorRig(t, wal.SyncInterval)
			var batches []wire.ShippedBatch
			var ends []wal.Pos
			for i := 0; i < 3; i++ {
				r.decide(2)
				batches = append(batches, r.ship())
				ends = append(ends, r.fwal.End())
			}
			r.crash()
			seg := filepath.Join(r.fdir, "wal-00000001.seg")
			if err := (wal.OSFS{}).Truncate(seg, tc.keep(ends)); err != nil {
				t.Fatal(err)
			}
			resumed, rec := r.reboot() // also checks the resumed cursor against the frontier
			if want := tc.resume(batches); resumed != want || rec.StaleCursors != tc.wantStale {
				t.Fatalf("boot resumed at %v after erasing %d cursor records, want %v and %d (%v)",
					resumed, rec.StaleCursors, want, tc.wantStale, rec)
			}
		})
	}
}

// Reseed writes the cursor record: a re-seeded follower that restarts
// resumes at the snapshot's frontier, on top of the checkpoint it wrote.
func TestReseedWritesTheCursorRecord(t *testing.T) {
	r := newCursorRig(t, wal.SyncAlways)
	r.decide(3)
	snap := r.primary.Snapshot()
	if err := r.follower.Reseed(snap); err != nil {
		t.Fatal(err)
	}
	r.crash()
	l, _, err := wal.Open(r.fdir, r.opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Cursor() != snap.WALPos() || snap.WALPos().IsZero() {
		t.Fatalf("cursor after reseed and restart = %v, want the snapshot's %v", l.Cursor(), snap.WALPos())
	}
}
