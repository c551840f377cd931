package server_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridbw/internal/faults"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// The fail-stop contract after a disk fault (the fsyncgate lesson): once
// an fsync fails, the kernel may have silently dropped the dirty pages,
// so no later fsync can be trusted to cover the lost write. The WAL
// poisons itself, and the server must (a) refuse every durable admission
// with ErrDurabilityLost, (b) never again answer "replicated", (c) keep
// serving non-durable work while advertising degradation — and only a
// restart, which re-reads what is really on disk, clears the state.

func submission(i int, durable bool) server.Submission {
	return server.Submission{
		From: i % 2, To: (i + 1) % 2,
		Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
		Durable: durable,
	}
}

func TestWALPoisonRefusesDurableUntilRestart(t *testing.T) {
	dir := t.TempDir()
	dfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
	l, _, err := wal.Open(dir, wal.Options{FS: dfs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := uniformConfig(nil)
	cfg.WAL = l
	cfg.SyncTimeout = 50 * time.Millisecond
	s := newTestServer(t, cfg)

	if d, err := s.Submit(submission(0, false)); err != nil || !d.Accepted {
		t.Fatalf("healthy submit: %v %+v", err, d)
	}
	if s.WALPoisoned() {
		t.Fatal("poisoned before any fault")
	}

	// The injected fsync failure fires inside this append; the decision
	// itself stands (async durability model) but the WAL is now poisoned.
	dfs.FailNextFsyncs(1)
	if d, err := s.Submit(submission(1, false)); err != nil || !d.Accepted {
		t.Fatalf("submit during fault: %v %+v", err, d)
	}
	if !s.WALPoisoned() {
		t.Fatal("WAL not poisoned after fsync failure")
	}

	// Every durable admission is now refused — including long after the
	// fault itself cleared; fail-stop is sticky by design.
	for try := 0; try < 3; try++ {
		_, err := s.Submit(submission(2+try, true))
		if !errors.Is(err, server.ErrDurabilityLost) {
			t.Fatalf("durable submit %d after poison: %v, want ErrDurabilityLost", try, err)
		}
	}

	// Non-durable work keeps flowing; the degradation is advertised, not
	// hidden.
	if d, err := s.Submit(submission(5, false)); err != nil || !d.Accepted {
		t.Fatalf("async submit on poisoned WAL: %v %+v", err, d)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health wire.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.WALPoisoned || health.Status != "degraded" {
		t.Fatalf("healthz on poisoned WAL: %+v", health)
	}

	// Over HTTP the refusal is a 503: the client should fail over, not
	// believe this node can make anything durable.
	body := strings.NewReader(`{"from":0,"to":1,"volume_bytes":5e9,"deadline_s":40000,"max_rate_bps":5e7,"durable":true}`)
	resp, err = http.Post(ts.URL+"/v1/requests", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("durable submit on poisoned WAL: HTTP %d, want 503", resp.StatusCode)
	}

	// The Prometheus surface carries the same signal for alerting.
	resp, err = http.Get(ts.URL + "/v1/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "gridbwd_wal_poisoned 1") {
		t.Fatal("metricsz does not report gridbwd_wal_poisoned 1")
	}

	// Restart: close everything, reopen the same directory on the real
	// filesystem. Recovery reads what truly hit the disk, so the fresh
	// process is trustworthy again and durable admissions resume.
	s.Close()
	l.Close()
	l2, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	cfg2 := uniformConfig(nil)
	cfg2.WAL = l2
	cfg2.SyncTimeout = 50 * time.Millisecond
	events, _, err := server.ReadWALEvents(l2, wal.Pos{})
	if err != nil {
		t.Fatalf("read recovered events: %v", err)
	}
	s2, err := server.New(cfg2)
	if err == nil {
		_, err = s2.ApplyEvents(events)
	}
	if err != nil {
		t.Fatalf("boot after restart: %v", err)
	}
	defer func() {
		s2.Close()
		l2.Close()
	}()
	if s2.WALPoisoned() {
		t.Fatal("fresh process still poisoned")
	}
	d, err := s2.Submit(submission(9, true))
	if err != nil || !d.Accepted {
		t.Fatalf("durable submit after restart: %v %+v", err, d)
	}
}

// A follower's pull cursor is its durability ack. When its WAL fail-stops
// mid-stream it must stop moving that cursor: the frames of the batch that
// hit the fault are in its memory and not in its log, and a primary that
// saw the cursor pass them would answer a durable submit "replicated" on
// the strength of a copy that a restart of the follower forgets.
func TestPoisonedFollowerStopsAcking(t *testing.T) {
	pl := openTestWAL(t)
	pcfg := uniformConfig(nil)
	pcfg.WAL = pl
	pcfg.SyncMode = "one"
	pcfg.SyncTimeout = 300 * time.Millisecond
	primary := newTestServer(t, pcfg)
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	dfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
	fl, _, err := wal.Open(t.TempDir(), wal.Options{FS: dfs})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	fcfg := uniformConfig(nil)
	fcfg.WAL = fl
	fcfg.Follow = ts.URL
	fcfg.ReplID = "f1"
	follower := newTestServer(t, fcfg)
	if err := follower.StartFollowing(); err != nil {
		t.Fatal(err)
	}

	durable := func(i int) server.BatchResult {
		t.Helper()
		res, err := primary.SubmitBatch([]server.Submission{submission(i, true)})
		if err != nil || res[0].Err != nil || !res[0].Decision.Accepted {
			t.Fatalf("durable submit %d: %v %+v", i, err, res)
		}
		return res[0]
	}
	for i := 0; i < 3; i++ {
		if res := durable(i); res.Durability != wire.DurabilityReplicated {
			t.Fatalf("healthy follower: submit %d answered %q", i, res.Durability)
		}
	}
	// The ack for the last healthy frame rides on the follower's next pull.
	healthy := pl.End()
	waitFor(t, "ack of the healthy prefix", func() bool { return primary.FollowerAcks()["f1"].Pos == healthy })

	// The next frame the follower appends hits a failed fsync.
	dfs.FailNextFsyncs(1)
	for i := 3; i < 6; i++ {
		if res := durable(i); res.Durability != wire.DurabilityDegraded {
			t.Fatalf("submit %d answered %q although its only follower never persisted it", i, res.Durability)
		}
	}
	if !follower.WALPoisoned() {
		t.Fatal("follower WAL not poisoned")
	}
	if got := primary.FollowerAcks()["f1"].Pos; got != healthy {
		t.Fatalf("ack table moved to %v past the poison point %v", got, healthy)
	}
	// Fail-stop: the pull loop halted with the cause on display.
	waitFor(t, "pull loop halt", func() bool {
		return strings.Contains(follower.ReplicationStatus().LastError, "WAL poisoned")
	})
	if got := follower.ReplicationStatus().Cursor; got != healthy {
		t.Fatalf("follower cursor %v, want it held at %v", got, healthy)
	}
}
