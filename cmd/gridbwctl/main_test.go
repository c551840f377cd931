package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
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
		{"tail"},
		{"tail", "-wal", "d", "extra"},
		{"tail", "-wal", "d", "-from", "3"},
		{"tail", "-wal", "d", "-from", "3:-1"},
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

// sink is a Config.Decisions tap keeping every event in order.
type sink struct {
	mu     sync.Mutex
	events []trace.Event
}

func (k *sink) Append(ev trace.Event) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.events = append(k.events, ev)
	return nil
}

// TestCtlTailPrintsTheSinkEvents: tail over a daemon's WAL prints exactly
// the events its decisions sink saw, in order and as JSON lines — accepts,
// a reject, a cancel, an expiry and the hold transitions — and -from starts
// past the records before it.
func TestCtlTailPrintsTheSinkEvents(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var now atomic.Int64
	seen := &sink{}
	cfg := testConfig()
	cfg.WAL, cfg.Decisions = l, seen
	cfg.Clock = func() time.Time { return time.Unix(0, now.Load()) }
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	submit := func(sub server.Submission, accept bool) server.Decision {
		t.Helper()
		d, err := s.Submit(sub)
		if err != nil || d.Accepted != accept {
			t.Fatalf("submit %+v: %v %+v, want accepted=%v", sub, err, d, accept)
		}
		return d
	}
	submit(server.Submission{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 10, MaxRate: 1 * units.GBps}, true)
	submit(server.Submission{From: 0, To: 1, Volume: 1 * units.TB, Deadline: 10, MaxRate: 1 * units.GBps}, false)
	if _, err := s.Cancel(submit(server.Submission{From: 1, To: 0, Volume: 1 * units.GB, Deadline: 100, MaxRate: 100 * units.MBps}, true).ID); err != nil {
		t.Fatal(err)
	}
	from := l.End()
	for _, key := range []string{"confirmed", "aborted"} {
		if res, err := s.HoldReserve([]wire.HoldReserveJSON{{
			Hold: key, Side: trace.HoldSideIngress, Point: 1, PeerPoint: 1, TTLS: 5,
			RelTimes: true, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100,
		}}); err != nil || !res[0].Held {
			t.Fatalf("reserve %s: %v %+v", key, err, res)
		}
	}
	if res, err := s.HoldConfirm([]wire.HoldRefJSON{{Hold: "confirmed"}}); err != nil || res[0].Code != 0 {
		t.Fatalf("confirm: %v %+v", err, res)
	}
	if res, err := s.HoldAbort([]wire.HoldRefJSON{{Hold: "aborted"}}); err != nil || !res[0].Released {
		t.Fatalf("abort: %v %+v", err, res)
	}
	now.Store(int64(20 * time.Second)) // past the first grant's τ = 10
	s.Now()

	kinds := make(map[string]bool)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	fromAt := -1
	for i, ev := range seen.events {
		kinds[ev.Kind] = true
		if ev.Kind == trace.EventHoldReserve && fromAt < 0 {
			fromAt = i
		}
		enc.Encode(ev)
	}
	for _, k := range []string{trace.EventAccept, trace.EventReject, trace.EventCancel, trace.EventExpire,
		trace.EventHoldReserve, trace.EventHoldConfirm, trace.EventHoldAbort} {
		if !kinds[k] {
			t.Fatalf("the history has no %s event", k)
		}
	}
	var got bytes.Buffer
	if err := run(context.Background(), []string{"tail", "-wal", dir}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("tail printed\n%s\nthe sink saw\n%s", got.String(), want.String())
	}

	got.Reset()
	if err := run(context.Background(), []string{"tail", "-wal", dir, "-from", from.String()}, &got); err != nil {
		t.Fatal(err)
	}
	var tailEvents []trace.Event
	dec := json.NewDecoder(&got)
	for dec.More() {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		tailEvents = append(tailEvents, ev)
	}
	if !reflect.DeepEqual(tailEvents, seen.events[fromAt:]) {
		t.Fatalf("tail -from %v printed %+v, want the sink's events from the first hold on", from, tailEvents)
	}
}

// TestCtlTailLeavesATornDirectoryUntouched: tail reads a directory whose
// last frame is half-written — a live daemon's, mid-append — stops quietly
// before that frame, and leaves every file byte for byte as it found it.
func TestCtlTailLeavesATornDirectoryUntouched(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.WAL = l
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.GB, Deadline: 4000, MaxRate: 1 * units.MBps}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	l.Close()
	seg := filepath.Join(dir, "wal-00000001.seg")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := wal.AppendFrame(nil, []byte(`{"t_s":0,"kind":"accept","request":3,"ingress":0,"egress":1}`))
	f.Write(frame[:len(frame)/2])
	f.Close()

	before := dirBytes(t, dir)
	var got bytes.Buffer
	if err := run(context.Background(), []string{"tail", "-wal", dir}, &got); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(got.String(), "\n"); n != 3 {
		t.Fatalf("tail printed %d events before the torn frame, want 3:\n%s", n, got.String())
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("tail changed the directory it read")
	}
}

// dirBytes maps each file in dir to its content.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(blob)
	}
	return out
}
