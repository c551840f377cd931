package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/alloc"
	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// fakeClock is a manually advanced wall clock shared by a server and its
// test, so expiry is deterministic without sleeping.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// eventSink is a Config.Decisions tap: it keeps every event the server
// emits, in order.
type eventSink struct {
	mu     sync.Mutex
	events []trace.Event
}

func (k *eventSink) Append(ev trace.Event) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.events = append(k.events, ev)
	return nil
}

// Events copies what the sink saw so far.
func (k *eventSink) Events() []trace.Event {
	k.mu.Lock()
	defer k.mu.Unlock()
	return slices.Clone(k.events)
}

func newTestServer(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func uniformConfig(clk *fakeClock) server.Config {
	cfg := server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
	}
	if clk != nil {
		cfg.Clock = clk.now
	}
	return cfg
}

// TestE2ELifecycle drives the full accepted-reservation lifecycle through
// the HTTP API: submit → accepted with MinRate ≤ bw ≤ MaxRate → visible in
// /v1/status → expires at τ(r) → capacity returned.
func TestE2ELifecycle(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// 100 GB in a 400 s window at up to 1 GB/s: MinRate is 250 MB/s.
	d, err := c.Submit(ctx, wire.SubmitRequest{
		From: 0, To: 1, VolumeBytes: 100e9, DeadlineS: 400, MaxRateBps: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	minRate, maxRate := 100e9/400.0, 1e9
	if d.RateBps < minRate*(1-units.Eps) || d.RateBps > maxRate*(1+units.Eps) {
		t.Errorf("granted rate %v outside [MinRate %v, MaxRate %v]", d.RateBps, minRate, maxRate)
	}
	if d.State != string(server.StateActive) {
		t.Errorf("state = %q, want active", d.State)
	}
	if moved := d.RateBps * (d.TauS - d.SigmaS); !units.ApproxEq(moved, 100e9) {
		t.Errorf("grant moves %v bytes, want 1e11", moved)
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Active != 1 || st.Accepted != 1 {
		t.Errorf("status after accept: %+v", st)
	}
	var usedIn0 float64
	for _, p := range st.Points {
		if p.Dir == "ingress" && p.Point == 0 {
			usedIn0 = p.UsedBps
		}
	}
	if !units.ApproxEq(usedIn0, d.RateBps) {
		t.Errorf("ingress 0 used = %v, want %v", usedIn0, d.RateBps)
	}

	// Past τ(r) the grant expires and the capacity comes back.
	clk.advance(time.Duration(d.TauS+1) * time.Second)
	got, err := c.Get(ctx, d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != string(server.StateExpired) {
		t.Errorf("state after τ = %q, want expired", got.State)
	}
	st, err = c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Active != 0 || st.Expired != 1 {
		t.Errorf("status after expiry: %+v", st)
	}
	for _, p := range st.Points {
		if p.UsedBps != 0 {
			t.Errorf("%s %d still holds %v after expiry", p.Dir, p.Point, p.UsedBps)
		}
	}

	// The freed point admits a full-rate transfer again.
	d2, err := c.Submit(ctx, wire.SubmitRequest{
		From: 0, To: 1, Volume: "100GB", DeadlineIn: "100s", MaxRate: "1GB/s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Accepted {
		t.Errorf("post-expiry submission rejected: %s", d2.Reason)
	}

	// /v1/metricsz reflects the lifetime counters.
	page, err := c.Metricsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gridbwd_requests_submitted_total 2",
		"gridbwd_requests_accepted_total 2",
		"gridbwd_reservations_expired_total 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metricsz missing %q:\n%s", want, page)
		}
	}
}

// TestBookAheadRigid books a rigid future rectangle, rejects a colliding
// one, and re-admits it after cancellation frees the window.
func TestBookAheadRigid(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// 100 GB over exactly [1000, 1100] at 1 GB/s: MinRate = MaxRate.
	rigid := wire.SubmitRequest{
		From: 0, To: 0, VolumeBytes: 100e9,
		NotBeforeS: 1000, DeadlineS: 1100, MaxRateBps: 1e9,
	}
	d, err := c.Submit(ctx, rigid)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted || d.State != string(server.StateBooked) {
		t.Fatalf("book-ahead decision = %+v", d)
	}
	if d.SigmaS != 1000 || d.TauS != 1100 {
		t.Errorf("booked window [%v, %v], want [1000, 1100]", d.SigmaS, d.TauS)
	}

	// The same rectangle again saturates ingress 0 in the future.
	d2, err := c.Submit(ctx, rigid)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Accepted {
		t.Error("colliding book-ahead was accepted")
	}

	// Cancelling the booking frees the window for rebooking.
	if _, err := c.Cancel(ctx, d.ID); err != nil {
		t.Fatal(err)
	}
	d3, err := c.Submit(ctx, rigid)
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Accepted {
		t.Errorf("rebooking after cancel rejected: %s", d3.Reason)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	// Malformed JSON body.
	resp, err := ts.Client().Post(ts.URL+"/v1/requests", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d, want 400", resp.StatusCode)
	}

	// Conflicting dual fields and bad unit strings.
	for _, req := range []wire.SubmitRequest{
		{From: 0, To: 0, VolumeBytes: 1e9, Volume: "1GB", DeadlineS: 10, MaxRateBps: 1e9},
		{From: 0, To: 0, Volume: "1 parsec", DeadlineS: 10, MaxRateBps: 1e9},
		{From: 9, To: 0, VolumeBytes: 1e9, DeadlineS: 10, MaxRateBps: 1e9},
		{From: 0, To: 0, VolumeBytes: -1, DeadlineS: 10, MaxRateBps: 1e9},
	} {
		if _, err := c.Submit(ctx, req); err == nil {
			t.Errorf("submission %+v did not error", req)
		}
	}

	// Unknown and malformed IDs.
	if _, err := c.Get(ctx, 999); !client.IsNotFound(err) {
		t.Errorf("Get(999) = %v, want 404", err)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/requests/zzz", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: HTTP %d, want 400", resp.StatusCode)
	}

	// Double cancel conflicts.
	d, err := c.Submit(ctx, wire.SubmitRequest{From: 0, To: 0, VolumeBytes: 1e9, DeadlineS: 100, MaxRateBps: 1e9})
	if err != nil || !d.Accepted {
		t.Fatalf("seed submission: %v %+v", err, d)
	}
	if _, err := c.Cancel(ctx, d.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, d.ID); !client.IsConflict(err) {
		t.Errorf("double cancel = %v, want 409", err)
	}

	// Domain rejections are 200 answers, not errors.
	dr, err := c.Submit(ctx, wire.SubmitRequest{From: 0, To: 0, VolumeBytes: 1e12, DeadlineS: 10, MaxRateBps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Accepted || dr.Reason == "" {
		t.Errorf("infeasible submission = %+v, want reject with reason", dr)
	}

	// A closed server answers 503.
	s.Close()
	if _, err := c.Submit(ctx, wire.SubmitRequest{From: 0, To: 0, VolumeBytes: 1e9, DeadlineS: 10, MaxRateBps: 1e9}); err == nil {
		t.Error("submit after Close did not error")
	} else if ae, ok := err.(*client.APIError); !ok || ae.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after Close = %v, want 503", err)
	}
}

// TestSnapshotRestoreRoundTrip proves a restarted daemon resumes with the
// exact ledger occupancy: the restored snapshot equals the original, and
// pending expiries still fire.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))

	// A mix: an active flexible transfer, a booked rigid rectangle, a
	// rejection and a cancellation, so every counter is non-zero.
	d1, err := s.Submit(server.Submission{From: 0, To: 1, Volume: 100 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps})
	if err != nil || !d1.Accepted {
		t.Fatalf("flexible: %v %+v", err, d1)
	}
	d2, err := s.Submit(server.Submission{From: 1, To: 0, Volume: 100 * units.GB, NotBefore: 1000, Deadline: 1100, MaxRate: 1 * units.GBps})
	if err != nil || !d2.Accepted {
		t.Fatalf("rigid booking: %v %+v", err, d2)
	}
	if d, err := s.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.TB, Deadline: 10, MaxRate: 1 * units.GBps}); err != nil || d.Accepted {
		t.Fatalf("infeasible: %v %+v", err, d)
	}
	d4, err := s.Submit(server.Submission{From: 1, To: 1, Volume: 1 * units.GB, Deadline: 500, MaxRate: 100 * units.MBps})
	if err != nil || !d4.Accepted {
		t.Fatalf("cancel seed: %v %+v", err, d4)
	}
	if _, err := s.Cancel(d4.ID); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Snapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.String()
	snap, err := server.ReadSnapshot(strings.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	restored, err := server.NewFromSnapshot(snap, server.Config{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}

	// Occupancy is preserved exactly: the restored snapshot is identical.
	var buf2 bytes.Buffer
	if err := restored.Snapshot().Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != blob {
		t.Errorf("snapshot drifted across restore:\n--- before ---\n%s\n--- after ---\n%s", blob, buf2.String())
	}

	// New IDs continue past the old counter.
	d5, err := restored.Submit(server.Submission{From: 0, To: 0, Volume: 1 * units.GB, Deadline: 800, MaxRate: 100 * units.MBps})
	if err != nil || !d5.Accepted {
		t.Fatalf("post-restore submission: %v %+v", err, d5)
	}
	if d5.ID <= d4.ID {
		t.Errorf("post-restore ID %d does not continue past %d", d5.ID, d4.ID)
	}

	// The restored expiry schedule still fires: past τ(d1) the flexible
	// transfer is gone and its points are free at the then-current instant.
	clk.advance(500 * time.Second)
	got, err := restored.Lookup(d1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != server.StateExpired {
		t.Errorf("restored reservation state after τ = %q, want expired", got.State)
	}
	st := restored.Status()
	if st.Stats.Expired == 0 {
		t.Error("restored server did not count the expiry")
	}
	// The rigid booking at [1000, 1100] survives as booked.
	gotBooked, err := restored.Lookup(d2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotBooked.State != server.StateBooked {
		t.Errorf("booking state at t=500 = %q, want booked", gotBooked.State)
	}
}

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, uniformConfig(clk))
	// A rigid seed: minbw grants exactly 1 GB/s, so the grant rate is a
	// known literal in the snapshot JSON below.
	if d, err := s.Submit(server.Submission{From: 0, To: 0, Volume: 100 * units.GB, Deadline: 100, MaxRate: 1 * units.GBps}); err != nil || !d.Accepted {
		t.Fatalf("seed: %v %+v", err, d)
	}
	var buf bytes.Buffer
	if err := s.Snapshot().Write(&buf); err != nil {
		t.Fatal(err)
	}

	// Every frame carries its CRC: one flipped bit anywhere in the
	// checkpoint is refused before anything installs.
	for _, at := range []int{3, buf.Len() / 2, buf.Len() - 1} {
		flipped := bytes.Clone(buf.Bytes())
		flipped[at] ^= 0x10
		if _, err := server.ReadSnapshot(bytes.NewReader(flipped)); err == nil {
			t.Errorf("checkpoint with byte %d flipped read without error", at)
		}
	}

	// Doubling a live grant's bandwidth over-commits the point; restore
	// must refuse rather than violate equation (1), even from a checkpoint
	// whose frames are intact.
	snap, err := server.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	doubled := 0
	for i, ev := range snap.Events {
		if ev.Kind == trace.EventAccept && ev.RateBps == 1e9 {
			snap.Events[i].RateBps = 2e9
			doubled++
		}
	}
	if doubled == 0 {
		t.Fatal("corruption did not apply; grant rate not found in snapshot")
	}
	var tampered bytes.Buffer
	if err := snap.Write(&tampered); err != nil {
		t.Fatal(err)
	}
	bad, err := server.ReadSnapshot(&tampered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.NewFromSnapshot(bad, server.Config{Clock: clk.now}); err == nil {
		t.Error("over-committed snapshot restored without error")
	}

	// Restore refuses platform overrides in cfg.
	if _, err := server.NewFromSnapshot(s.Snapshot(), server.Config{Clock: clk.now, Policy: "f=1"}); err == nil {
		t.Error("restore accepted a cfg policy override")
	}
}

// TestConcurrentAdmissionStress fires goroutines of overlapping
// reservations at one ingress and proves the ledger never exceeds Bin(i)
// at any instant: every surviving grant replays into a fresh ledger whose
// Reserve enforces the capacity constraint over the full time axis. Run
// under -race this also checks the locking of the control plane.
func TestConcurrentAdmissionStress(t *testing.T) {
	clk := &fakeClock{}
	cfg := server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps},
		Egress:  []units.Bandwidth{500 * units.MBps, 500 * units.MBps, 500 * units.MBps, 500 * units.MBps},
		Policy:  "f=0.5",
		Clock:   clk.now,
	}
	s := newTestServer(t, cfg)

	const workers = 16
	const perWorker = 40
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Overlapping windows, all on ingress 0; deterministic
				// per-goroutine mix of sizes and deadlines.
				vol := units.Volume(1+(w+i)%7) * 10 * units.GB
				deadline := units.Time(200 + 50*((w+2*i)%9))
				notBefore := units.Time(10 * ((w * i) % 5))
				d, err := s.Submit(server.Submission{
					From: 0, To: (w + i) % 4,
					Volume: vol, NotBefore: notBefore, Deadline: deadline,
					MaxRate: 200 * units.MBps,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if d.Accepted {
					accepted.Add(1)
					if i%5 == 0 {
						if _, err := s.Cancel(d.ID); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(w)
	}
	// Concurrent readers exercise Status/Lookup against the writers.
	stopReaders := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				st := s.Status()
				for _, p := range st.Points {
					if p.Used > p.Capacity*(1+units.Eps) {
						t.Errorf("instantaneous over-commit: %s %d used %v of %v",
							p.Dir, p.Point, p.Used, p.Capacity)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stopReaders)
	rg.Wait()

	if accepted.Load() == 0 {
		t.Fatal("stress run accepted nothing; load model is broken")
	}
	if err := s.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}

	// Independent replay: a fresh ledger must admit every surviving grant.
	live := s.LiveReservations()
	fresh := alloc.NewSharded(s.Network())
	for _, rec := range live {
		if rec.Grant.Bandwidth > rec.Req.MaxRate*(1+units.Eps) {
			t.Errorf("request %d granted %v above MaxRate %v", rec.Req.ID, rec.Grant.Bandwidth, rec.Req.MaxRate)
		}
		if rec.Grant.Sigma < rec.Req.Start || rec.Grant.Tau > rec.Req.Finish*(1+units.Eps) {
			t.Errorf("request %d window [%v,%v] outside [%v,%v]",
				rec.Req.ID, rec.Grant.Sigma, rec.Grant.Tau, rec.Req.Start, rec.Req.Finish)
		}
		if err := fresh.Reserve(rec.Req, rec.Grant); err != nil {
			t.Fatalf("replay violates capacity: %v", err)
		}
	}
	if err := fresh.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	t.Logf("stress: %d submitted, %d accepted, %d live at end",
		workers*perWorker, accepted.Load(), len(live))
}

// TestDecisionLogAudit checks the admission audit trail: every lifecycle
// transition reaches the decisions sink with its grant.
func TestDecisionLogAudit(t *testing.T) {
	clk := &fakeClock{}
	log := &eventSink{}
	cfg := uniformConfig(clk)
	cfg.Decisions = log
	s := newTestServer(t, cfg)

	d1, err := s.Submit(server.Submission{From: 0, To: 0, Volume: 50 * units.GB, Deadline: 100, MaxRate: 1 * units.GBps})
	if err != nil || !d1.Accepted {
		t.Fatalf("accept: %v %+v", err, d1)
	}
	if d, err := s.Submit(server.Submission{From: 0, To: 0, Volume: 1 * units.TB, Deadline: 50, MaxRate: 1 * units.GBps}); err != nil || d.Accepted {
		t.Fatalf("reject: %v %+v", err, d)
	}
	clk.advance(200 * time.Second)
	s.Now() // fires the expiry

	events := log.Events()
	kinds := make(map[string]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds[trace.EventAccept] != 1 || kinds[trace.EventReject] != 1 || kinds[trace.EventExpire] != 1 {
		t.Errorf("event kinds = %v", kinds)
	}
	for _, ev := range events {
		if ev.Kind == trace.EventAccept && ev.RateBps*(ev.TauS-ev.SigmaS) == 0 {
			t.Errorf("accept event lacks grant data: %+v", ev)
		}
	}
}

func TestLookupEvictionBound(t *testing.T) {
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.FinishedRetention = 2
	s := newTestServer(t, cfg)

	var ids []request.ID
	for i := 0; i < 4; i++ {
		d, err := s.Submit(server.Submission{From: 0, To: 0, Volume: 1 * units.GB, Deadline: 1000, MaxRate: 100 * units.MBps})
		if err != nil || !d.Accepted {
			t.Fatalf("seed %d: %v %+v", i, err, d)
		}
		ids = append(ids, d.ID)
		if _, err := s.Cancel(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Only the two newest terminal records survive.
	for _, id := range ids[:2] {
		if _, err := s.Lookup(id); err == nil {
			t.Errorf("evicted reservation %d still resolves", id)
		}
	}
	for _, id := range ids[2:] {
		if d, err := s.Lookup(id); err != nil || d.State != server.StateCancelled {
			t.Errorf("retained reservation %d = %+v, %v", id, d, err)
		}
	}
}
