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
	var health server.HealthJSON
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
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/metricsz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
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
