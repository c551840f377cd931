package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// openSmallWAL opens a WAL with tiny segments so a handful of events
// rotates it and compaction has whole segments to drop.
func openSmallWAL(t *testing.T) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestReplPullUnblocksOnClose pins the shutdown deadline on the long-poll:
// a closing server wakes every parked poller immediately instead of
// stranding it for the rest of its wait_ms window.
func TestReplPullUnblocksOnClose(t *testing.T) {
	cfg := uniformConfig(nil)
	cfg.WAL = openTestWAL(t)
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park a poller at the WAL frontier with a 30s window.
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/replication/pull?wait_ms=30000")
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked pull failed outright: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left the long-poller parked")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("poller released %v after Close, want immediate", waited)
	}
}

// TestReplPullCompactionRace runs a follower's pull loop against a primary
// whose WAL is being compacted concurrently with new decisions. Whatever
// the interleaving — clean continue past the compaction, or a re-seed on
// the stream — the follower must converge on the primary's exact state; a
// torn stream would surface as a divergent ledger or a broken invariant.
func TestReplPullCompactionRace(t *testing.T) {
	pcfg := uniformConfig(nil)
	pwal := openSmallWAL(t)
	pcfg.WAL = pwal
	primary := newTestServer(t, pcfg)
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	fcfg := uniformConfig(nil)
	fcfg.WAL = openTestWAL(t)
	fcfg.Follow = ts.URL
	follower := newTestServer(t, fcfg)
	if err := follower.StartFollowing(); err != nil {
		t.Fatal(err)
	}

	// Load and compaction interleave: every few decisions the primary
	// drops all complete segments, racing the follower's in-flight pulls.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 24; i++ {
			if i%4 == 3 {
				if _, err := pwal.CompactBefore(pwal.End()); err != nil {
					t.Errorf("compact %d: %v", i, err)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for i := 0; i < 24; i++ {
		d, err := primary.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2,
			Volume: 1e9, Deadline: 3600, MaxRate: 20e6,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()

	waitFor(t, "follower convergence", func() bool {
		fs, ps := follower.Status(), primary.Status()
		return fs.Active == ps.Active && follower.ReplicationStatus().LagBytes == 0
	})
	rs := follower.ReplicationStatus()
	if rs.LastError != "" {
		t.Fatalf("follower converged but holds error %q", rs.LastError)
	}
	if err := follower.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
	t.Logf("converged: %d applied, %d reseeds", rs.Applied, follower.Status().Stats.Reseeds)
}

// TestReplPullStaleCursorReseeds is the deterministic re-seed end to end
// over the real pull loop: the primary compacts its WAL before the
// follower ever connects, so the follower's zero cursor is unservable and
// the stream must carry the checkpoint, re-seed the follower, and catch it
// up.
func TestReplPullStaleCursorReseeds(t *testing.T) {
	pcfg := uniformConfig(nil)
	pwal := openSmallWAL(t)
	pcfg.WAL = pwal
	primary := newTestServer(t, pcfg)
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	var keptID int
	for i := 0; i < 8; i++ {
		d, err := primary.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2,
			Volume: 1e9, Deadline: 3600, MaxRate: 50e6,
			IdempotencyKey: fmt.Sprintf("seed-%d", i),
		})
		if err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
		keptID = int(d.ID)
	}
	dropped, err := pwal.CompactBefore(pwal.End())
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("WAL never rotated; the zero cursor would still be servable")
	}

	fcfg := uniformConfig(nil)
	fwal := openTestWAL(t)
	fcfg.WAL = fwal
	fcfg.Follow = ts.URL
	follower := newTestServer(t, fcfg)
	if err := follower.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "auto-reseed", func() bool {
		st := follower.Status()
		return st.Stats.Reseeds == 1 && st.Active == primary.Status().Active
	})

	// The re-seeded state is durable: the checkpoint is on disk and the
	// persisted cursor matches the snapshot frontier, so a reboot replays
	// only the shipped suffix — never the compacted gap.
	if _, err := os.Stat(filepath.Join(fwal.Dir(), server.CheckpointName)); err != nil {
		t.Fatalf("checkpoint not persisted: %v", err)
	}
	if fwal.Cursor().IsZero() {
		t.Fatal("recorded cursor still zero after reseed")
	}

	// And pulling continues live past the re-seed.
	d, err := primary.Submit(server.Submission{From: 0, To: 1, Volume: 1e9, Deadline: 3600, MaxRate: 50e6})
	if err != nil || !d.Accepted {
		t.Fatalf("post-reseed submit: %v %+v", err, d)
	}
	waitFor(t, "post-reseed catch-up", func() bool {
		return follower.Status().Active == primary.Status().Active
	})
	if got, err := follower.Lookup(request.ID(keptID)); err != nil || !got.Accepted {
		t.Fatalf("reservation %d lost across reseed: %v %+v", keptID, err, got)
	}
}

// TestReseedRefusals pins the guard rails: a snapshot from an older epoch
// is fenced, a snapshot from a different platform is refused, and a
// primary cannot be re-seeded at all.
func TestReseedRefusals(t *testing.T) {
	donor := newTestServer(t, uniformConfig(nil))
	if _, err := donor.Submit(server.Submission{From: 0, To: 1, Volume: 1e9, Deadline: 3600, MaxRate: 50e6}); err != nil {
		t.Fatal(err)
	}
	snap := donor.Snapshot()

	// Older epoch: the deposed primary cannot drag a new-lineage follower
	// backwards.
	fcfg := uniformConfig(nil)
	fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	fcfg.Epoch = 5
	f := newTestServer(t, fcfg)
	err := f.Reseed(snap)
	var fenced *server.FencedError
	if !errors.As(err, &fenced) {
		t.Fatalf("old-epoch reseed: err = %v, want FencedError", err)
	}
	if fenced.Batch != snap.Epoch || fenced.Current != 5 {
		t.Fatalf("fence = %+v, want batch %d vs current 5", fenced, snap.Epoch)
	}

	// Wrong platform: replaying grants against capacities they were never
	// admitted under is refused outright.
	ncfg := server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps},
		Follow:  "http://127.0.0.1:0",
	}
	narrow := newTestServer(t, ncfg)
	if err := narrow.Reseed(snap); err == nil || !strings.Contains(err.Error(), "platform") {
		t.Fatalf("cross-platform reseed: err = %v, want platform mismatch", err)
	}

	// Only the current snapshot format is installed.
	old := *snap
	old.Version = server.SnapshotVersion - 1
	wide := uniformConfig(nil)
	wide.Follow = "http://127.0.0.1:0"
	if err := newTestServer(t, wide).Reseed(&old); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("old-version reseed: err = %v, want unsupported version", err)
	}

	// A primary is nobody's re-seed target.
	p := newTestServer(t, uniformConfig(nil))
	if err := p.Reseed(snap); !errors.Is(err, server.ErrNotFollower) {
		t.Fatalf("primary reseed: err = %v, want ErrNotFollower", err)
	}
}

// TestReseedCarriesHolds: a re-seed installs the donor's cross-shard holds
// along with its reservations — the same snapshot installer a boot uses —
// so the follower, once promoted, keeps the held capacity refused, rolls
// the held hold back at its TTL and releases the confirmed one at τ. Holds
// the follower had applied before the re-seed go with the ledger they were
// booked in.
func TestReseedCarriesHolds(t *testing.T) {
	clk := &fakeClock{}
	donor := newTestServer(t, holdConfig(clk, nil))
	onPoint := func(hold string, point int) wire.HoldReserveJSON {
		r := fullReserve(hold)
		r.Point, r.PeerPoint = point, 1-point
		return r
	}
	if r, err := reserve1(donor, onPoint("held", 0)); err != nil || !r.Held {
		t.Fatalf("reserve held: %v %+v", err, r)
	}
	if r, err := reserve1(donor, onPoint("confirmed", 1)); err != nil || !r.Held {
		t.Fatalf("reserve confirmed: %v %+v", err, r)
	}
	if st, err := confirm1(donor, "confirmed", 0); err != nil || st.State != "confirmed" {
		t.Fatalf("confirm: %v %+v", err, st)
	}
	snap := donor.Snapshot()

	fcfg := holdConfig(clk, nil)
	fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	f := newTestServer(t, fcfg)
	// History the re-seed displaces: a hold shipped before the cursor was
	// compacted away, which the donor's snapshot no longer knows.
	if err := f.ApplyShipped(wire.ShippedBatch{Epoch: 1, Events: frames(t, trace.Event{
		Kind: trace.EventHoldReserve, Request: -1, Ingress: 1, Egress: 0,
		Hold: "stale", Side: trace.HoldSideEgress, RateBps: 1e9, SigmaS: 0, TauS: 10, ExpireS: 5,
	})}); err != nil {
		t.Fatal(err)
	}
	if held, _ := f.HoldStats(); held != 1 {
		t.Fatalf("follower holds before reseed = %d held, want the 1 shipped", held)
	}

	if err := f.Reseed(snap); err != nil {
		t.Fatal(err)
	}
	if held, confirmed := f.HoldStats(); held != 1 || confirmed != 1 {
		t.Fatalf("follower holds after reseed = %d held / %d confirmed, want the donor's 1/1", held, confirmed)
	}
	if got := f.Snapshot().Events; !reflect.DeepEqual(got, snap.Events) {
		t.Fatalf("follower state after reseed\n got %+v\nwant %+v", got, snap.Events)
	}

	if _, err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if r, err := reserve1(f, onPoint("late", 0)); err != nil || r.Held {
		t.Fatalf("reserve over the held capacity: %v %+v, want a refusal", err, r)
	}
	// The displaced hold's egress point is free again.
	if r, err := reserve1(f, wire.HoldReserveJSON{
		Hold: "egress-free", Side: trace.HoldSideEgress, Point: 0, PeerPoint: 1, TTLS: 1,
		RateBps: 1e9, SigmaS: 0, TauS: 10,
	}); err != nil || !r.Held {
		t.Fatalf("reserve on the displaced hold's point: %v %+v, want held", err, r)
	}

	clk.advance(6 * time.Second) // past the held hold's 5s TTL
	if held, confirmed := f.HoldStats(); held != 0 || confirmed != 1 {
		t.Fatalf("holds past the TTL = %d held / %d confirmed, want 0/1", held, confirmed)
	}
	afterTTL := fullReserveRel("after-ttl")
	afterTTL.TTLS = 1
	if r, err := reserve1(f, afterTTL); err != nil || !r.Held {
		t.Fatalf("reserve after the TTL rollback: %v %+v, want the capacity back", err, r)
	}
	clk.advance(5 * time.Second) // past the confirmed hold's τ = 10
	if held, confirmed := f.HoldStats(); held != 0 || confirmed != 0 {
		t.Fatalf("holds past τ = %d held / %d confirmed, want 0/0", held, confirmed)
	}
	if err := f.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestReseedStreamCutAtEveryOffset cuts a re-seed — the gone frame and the
// checkpoint after it — at every byte offset of its checkpoint frames. A
// cut at a frame boundary leaves well-formed frames, and only the event
// count the header declares tells the short checkpoint apart: every cut
// must fail the stream with the follower untouched — no re-seed counted,
// no state installed, no checkpoint persisted — and never install fewer
// events.
func TestReseedStreamCutAtEveryOffset(t *testing.T) {
	clk := &fakeClock{}
	h := recordRecoveryHistory(t, clk, uniformConfig(clk))
	stream, err := server.AppendReplReseed(nil, h.mid)
	if err != nil {
		t.Fatal(err)
	}
	gone := len(wire.AppendReplGone(nil))
	for cut := gone; cut <= len(stream); cut++ {
		l, _, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := uniformConfig(clk)
		cfg.WAL = l
		cfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
		f := newTestServer(t, cfg)
		err = f.FollowStream(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(stream[:cut]), io.Discard})
		_, statErr := os.Stat(filepath.Join(cfg.WAL.Dir(), server.CheckpointName))
		if cut == len(stream) {
			// The whole re-seed installs, and the stream then ends.
			if got := f.Snapshot().Events; !errors.Is(err, io.EOF) || !reflect.DeepEqual(got, h.mid.Events) || statErr != nil {
				t.Fatalf("whole re-seed: %v, %d events installed (want %d), checkpoint %v", err, len(got), len(h.mid.Events), statErr)
			}
			break
		}
		if err == nil || f.Status().Stats.Reseeds != 0 || len(f.LiveReservations()) != 0 || statErr == nil {
			t.Fatalf("cut %d of %d: %v, %d reseeds, %d live, checkpoint %v; want the follower untouched",
				cut, len(stream), err, f.Status().Stats.Reseeds, len(f.LiveReservations()), statErr)
		}
		f.Close()
		l.Close()
	}
}

// TestCheckpointWritesSerializeWithReseed: a follower's periodic checkpoint
// (-snapshot-every) and a re-seed write the same file. However they
// interleave, the re-seed succeeds and the checkpoint left on disk is
// never older than the re-seeded state: it holds the donor's events and a
// WAL position the compacted local log still has.
func TestCheckpointWritesSerializeWithReseed(t *testing.T) {
	donor := newTestServer(t, uniformConfig(nil))
	for i := 0; i < 4; i++ {
		if d, err := donor.Submit(submission(i, false)); err != nil || !d.Accepted {
			t.Fatalf("donor submit %d: %v %+v", i, err, d)
		}
	}
	snap := donor.Snapshot()
	var bulk []trace.Event
	for i := 0; i < 2000; i++ {
		bulk = append(bulk, trace.Event{Kind: trace.EventAccept, Request: i, Ingress: 1, Egress: 0,
			RateBps: 1e3, TauS: 1e6, VolumeB: 1e9, MaxRateBps: 1e3})
	}
	for round := 0; round < 5; round++ {
		fcfg := uniformConfig(nil)
		fwal := openTestWAL(t)
		fcfg.WAL = fwal
		fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
		f := newTestServer(t, fcfg)
		// A large state to displace makes the periodic writes slow, which
		// is when an unserialized one lands after the re-seed's.
		if err := f.ApplyShipped(wire.ShippedBatch{Epoch: 1, Events: frames(t, bulk...)}); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		wrote := make(chan struct{}, 1)
		go func() {
			defer close(done)
			for {
				select {
				case wrote <- struct{}{}:
				default:
				}
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.WriteCheckpoint(); err != nil {
					t.Errorf("periodic checkpoint: %v", err)
					return
				}
			}
		}()
		<-wrote // the periodic writer is running, most likely mid-write
		err := f.Reseed(snap)
		close(stop)
		<-done
		if err != nil {
			t.Fatalf("round %d: reseed beside periodic checkpoints: %v", round, err)
		}
		blob, err := os.ReadFile(filepath.Join(fwal.Dir(), server.CheckpointName))
		if err != nil {
			t.Fatal(err)
		}
		got, err := server.ReadSnapshot(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("round %d: checkpoint on disk: %v", round, err)
		}
		// Each checkpoint stamps its events with its own now_s.
		unstamped := func(events []trace.Event) []trace.Event {
			out := slices.Clone(events)
			for i := range out {
				out[i].At = 0
			}
			return out
		}
		if !reflect.DeepEqual(unstamped(got.Events), unstamped(snap.Events)) {
			t.Fatalf("round %d: checkpoint on disk holds %d events, not the re-seeded %d: an older state was written over the re-seed's", round, len(got.Events), len(snap.Events))
		}
		if _, _, err := server.ReadWALEvents(fwal, got.WALPos()); err != nil {
			t.Fatalf("round %d: checkpoint's WAL position %v: %v", round, got.WALPos(), err)
		}
		f.Close()
	}
}
