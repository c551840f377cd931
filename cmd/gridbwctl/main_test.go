package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

func testConfig() server.Config {
	return server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
	}
}

func TestCtlUsageErrors(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"status"},
		{"promote"},
		{"promote", "http://a", "http://b"},
		{"watch"},
		{"watch", "-primary", "http://a"},
		// The vote set is the standby daemon's -peers now, not the watchdog's.
		{"watch", "-primary", "http://a", "-standby", "http://b", "-peers", "http://c"},
		{"watch", "-primary", "http://a", "-standby", "http://b", "-candidate", "b"},
	} {
		if err := run(ctx, args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted, want usage error", args)
		}
	}
}

func TestCtlStatus(t *testing.T) {
	cfg := testConfig()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	dead := httptest.NewServer(nil)
	dead.Close()

	var out bytes.Buffer
	if err := run(context.Background(), []string{"status", ts.URL, dead.URL}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, ts.URL+"\tprimary\tepoch=1") {
		t.Errorf("status output missing the primary line:\n%s", got)
	}
	if !strings.Contains(got, dead.URL+"\tunreachable") {
		t.Errorf("status output missing the unreachable line:\n%s", got)
	}
}

func TestCtlPromote(t *testing.T) {
	cfg := testConfig()
	cfg.Follow = "http://127.0.0.1:0" // standby shape; never started
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out bytes.Buffer
	if err := run(context.Background(), []string{"promote", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "primary\tepoch=2") {
		t.Errorf("promote output = %q, want role primary at epoch 2", got)
	}
	if s.Following() {
		t.Fatal("still a follower after gridbwctl promote")
	}

	// A standby that has peers must win their votes first. With both of
	// them dark it refuses, and promote reports the refusal — not a fault.
	dark, dark2 := httptest.NewServer(nil), httptest.NewServer(nil)
	dark.Close()
	dark2.Close()
	l, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg.WAL, cfg.ReplID, cfg.Peers = l, "b", []string{dark.URL, dark2.URL}
	grouped, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer grouped.Close()
	gts := httptest.NewServer(grouped.Handler())
	defer gts.Close()
	err = run(context.Background(), []string{"promote", gts.URL}, &out)
	if err == nil || !client.IsConflict(err) || !strings.Contains(err.Error(), "quorum denied: 0 of 1 needed peer votes for epoch 2") {
		t.Fatalf("promote without a majority: err = %v, want the 409 refusal", err)
	}
	if !grouped.Following() || grouped.Epoch() != 1 {
		t.Fatal("a refused promote changed the standby's role or epoch")
	}
}

// TestCtlWatch runs the external watchdog against a real primary/standby
// pair, kills the primary, and expects watch to promote the standby,
// narrate the transitions, and exit cleanly.
func TestCtlWatch(t *testing.T) {
	primary, err := server.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	scfg := testConfig()
	scfg.Follow = pts.URL
	standby, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	if err := standby.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(standby.Handler())
	defer sts.Close()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"watch", "-primary", pts.URL, "-standby", sts.URL,
			"-interval", "10ms", "-misses", "2",
		}, &out)
	}()
	time.Sleep(50 * time.Millisecond) // a few healthy probes first
	pts.Close()
	primary.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watch returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch never promoted the standby")
	}
	if standby.Epoch() != 2 || standby.Following() {
		t.Fatalf("standby after watch: epoch %d following %v, want promoted at 2", standby.Epoch(), standby.Following())
	}
	got := out.String()
	for _, want := range []string{
		"watchdog follower -> suspect",
		"watchdog promoting -> primary",
		"is primary (epoch 2)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("watch output missing %q:\n%s", want, got)
		}
	}
}
