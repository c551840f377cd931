package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// scriptedSeams is a deterministic watchdog environment: the probe
// answers from a script, the standby reports a scripted lag, and promote
// succeeds or fails on demand — no sockets, no sleeping.
type scriptedSeams struct {
	probeErrs   []error // consumed per Tick; nil = healthy
	probeIdx    int
	lag         int64
	role        string
	statusErr   error
	promoteErr  error
	promoteEpch uint64
	promotes    int
}

func (ss *scriptedSeams) config(k int) Config {
	return Config{
		Misses:      k,
		MaxLagBytes: 100,
		Probe: func(ctx context.Context) error {
			if ss.probeIdx >= len(ss.probeErrs) {
				return nil
			}
			err := ss.probeErrs[ss.probeIdx]
			ss.probeIdx++
			return err
		},
		StandbyStatus: func(ctx context.Context) (ReplicationStatus, error) {
			if ss.statusErr != nil {
				return ReplicationStatus{}, ss.statusErr
			}
			role := ss.role
			if role == "" {
				role = "follower"
			}
			return ReplicationStatus{Role: role, Epoch: ss.promoteEpch, LagBytes: ss.lag}, nil
		},
		Promote: func(ctx context.Context) (uint64, error) {
			ss.promotes++
			if ss.promoteErr != nil {
				return 0, ss.promoteErr
			}
			return ss.promoteEpch, nil
		},
	}
}

func errs(n int) []error {
	out := make([]error, n)
	for i := range out {
		out[i] = errors.New("probe: connection refused")
	}
	return out
}

// TestWatchdogPromotesDeadPrimary is the happy-path failover without real
// time: K consecutive misses, lag within bound, one promote call.
func TestWatchdogPromotesDeadPrimary(t *testing.T) {
	ss := &scriptedSeams{probeErrs: errs(10), promoteEpch: 2}
	var edges []string
	cfg := ss.config(3)
	cfg.OnTransition = func(from, to State, in Input) {
		edges = append(edges, fmt.Sprintf("%s->%s", from, to))
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	states := []State{}
	for i := 0; i < 4; i++ {
		states = append(states, w.Tick(ctx))
	}
	want := []State{StateFollower, StateFollower, StatePrimary, StatePrimary}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("tick %d: state %v, want %v (all: %v)", i, states[i], want[i], states)
		}
	}
	// The third tick rode the whole ladder: suspect, lag check, promote.
	wantEdges := []string{"follower->suspect", "suspect->promoting", "promoting->primary"}
	if len(edges) != len(wantEdges) {
		t.Fatalf("edges = %v, want %v", edges, wantEdges)
	}
	for i := range wantEdges {
		if edges[i] != wantEdges[i] {
			t.Fatalf("edge %d = %q, want %q", i, edges[i], wantEdges[i])
		}
	}
	st := w.Status()
	if st.Epoch != 2 || ss.promotes != 1 {
		t.Fatalf("epoch %d, promotes %d; want 2, 1", st.Epoch, ss.promotes)
	}
	if st.Stats.Probes != 3 || st.Stats.Misses != 3 || st.Stats.Promotions != 1 {
		t.Fatalf("stats = %+v", st.Stats)
	}
	if st.Stats.Transitions != 3 {
		t.Fatalf("transitions = %d, want 3", st.Stats.Transitions)
	}
}

// TestWatchdogBlipDoesNotPromote: misses below K, then the primary
// answers again — no suspicion survives.
func TestWatchdogBlipDoesNotPromote(t *testing.T) {
	ss := &scriptedSeams{probeErrs: []error{errors.New("x"), errors.New("x"), nil, nil}, promoteEpch: 2}
	w, err := New(ss.config(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if got := w.Tick(ctx); got != StateFollower {
			t.Fatalf("tick %d: state %v, want follower", i, got)
		}
	}
	if ss.promotes != 0 {
		t.Fatalf("promoted a healthy primary %d times", ss.promotes)
	}
	if st := w.Status(); st.LastError != "" {
		t.Fatalf("last error %q after recovery, want cleared", st.LastError)
	}
}

// TestWatchdogLagHoldsPromotion: a standby missing acked history is not
// promoted until it catches up.
func TestWatchdogLagHoldsPromotion(t *testing.T) {
	ss := &scriptedSeams{probeErrs: errs(10), lag: 1000, promoteEpch: 2}
	w, err := New(ss.config(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if got := w.Tick(ctx); got != StateSuspect && i >= 1 {
			t.Fatalf("tick %d: state %v, want suspect while lagging", i, got)
		}
	}
	if ss.promotes != 0 {
		t.Fatal("promoted a lagging standby")
	}
	if st := w.Status(); st.Stats.LagHolds < 2 {
		t.Fatalf("lag holds = %d, want >= 2", st.Stats.LagHolds)
	}
	ss.lag = 10 // caught up
	if got := w.Tick(ctx); got != StatePrimary {
		t.Fatalf("state after catch-up tick = %v, want primary", got)
	}
	if ss.promotes != 1 {
		t.Fatalf("promotes = %d, want 1", ss.promotes)
	}
}

// TestWatchdogUnreachableStandbyHolds: a standby the watchdog cannot see
// must never be promoted blind.
func TestWatchdogUnreachableStandbyHolds(t *testing.T) {
	ss := &scriptedSeams{probeErrs: errs(10), statusErr: errors.New("standby: connection refused")}
	w, err := New(ss.config(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if got := w.Tick(ctx); got != StateSuspect {
			t.Fatalf("tick %d: state %v, want suspect", i, got)
		}
	}
	if ss.promotes != 0 {
		t.Fatal("promoted without seeing the standby")
	}
}

// TestWatchdogPromoteFailureRetries: a failed promote re-runs the suspect
// checks instead of giving up or hammering.
func TestWatchdogPromoteFailureRetries(t *testing.T) {
	ss := &scriptedSeams{probeErrs: errs(10), promoteErr: errors.New("promote: 500"), promoteEpch: 2}
	w, err := New(ss.config(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got := w.Tick(ctx); got != StateSuspect {
		t.Fatalf("state after failed promote tick = %v, want suspect", got)
	}
	ss.promoteErr = nil
	if got := w.Tick(ctx); got != StatePrimary {
		t.Fatalf("state after retry tick = %v, want primary", got)
	}
	st := w.Status()
	if st.Stats.PromoteAttempts != 2 || st.Stats.Promotions != 1 {
		t.Fatalf("attempts %d promotions %d, want 2/1", st.Stats.PromoteAttempts, st.Stats.Promotions)
	}
}

// TestWatchdogDefersToOperator: a standby that already reports itself
// primary (an operator or rival watchdog won) ends the run without a
// promote call.
func TestWatchdogDefersToOperator(t *testing.T) {
	ss := &scriptedSeams{probeErrs: errs(10), role: "primary", promoteEpch: 3}
	w, err := New(ss.config(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Tick(context.Background()); got != StatePrimary {
		t.Fatalf("state = %v, want primary", got)
	}
	if ss.promotes != 0 {
		t.Fatal("issued a promote to an already-primary standby")
	}
	if w.Status().Epoch != 3 {
		t.Fatalf("epoch = %d, want the standby's reported 3", w.Status().Epoch)
	}
}

// TestWatchdogRunLoopsWithoutRealTime drives Run with an injected Sleep:
// the loop must tick through the whole ladder and return nil on
// promotion without touching the wall clock.
func TestWatchdogRunLoopsWithoutRealTime(t *testing.T) {
	ss := &scriptedSeams{probeErrs: errs(10), promoteEpch: 2}
	cfg := ss.config(3)
	slept := 0
	cfg.Sleep = func(ctx context.Context, d time.Duration) error {
		slept++
		if slept > 100 {
			t.Fatal("run did not converge")
		}
		return nil
	}
	cfg.Jitter = func() float64 { return 0.5 } // exactly the base interval
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w.State() != "primary" {
		t.Fatalf("state after Run = %q", w.State())
	}
	if slept < 2 {
		t.Fatalf("slept %d times, want >= 2 (one per pre-promotion tick)", slept)
	}
}

// TestWatchdogRunHonorsCancel: a cancelled context stops the loop with
// ctx.Err() while the primary is still healthy.
func TestWatchdogRunHonorsCancel(t *testing.T) {
	ss := &scriptedSeams{} // probe always healthy
	cfg := ss.config(3)
	ctx, cancel := context.WithCancel(context.Background())
	ticks := 0
	cfg.Sleep = func(ctx context.Context, d time.Duration) error {
		ticks++
		if ticks >= 3 {
			cancel()
		}
		return ctx.Err()
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
}

// TestWatchdogConfigValidation: missing URLs without injected seams are
// construction errors, not runtime surprises.
func TestWatchdogConfigValidation(t *testing.T) {
	if _, err := New(Config{Standby: "http://b"}); err == nil {
		t.Fatal("no primary URL and no probe seam accepted")
	}
	if _, err := New(Config{Primary: "http://a"}); err == nil {
		t.Fatal("no standby URL and no status/promote seams accepted")
	}
	if _, err := New(Config{Primary: "http://a", Standby: "http://b"}); err != nil {
		t.Fatalf("full HTTP config rejected: %v", err)
	}
}

// TestWatchdogTickDelayJitter pins the ±25% jitter band.
func TestWatchdogTickDelayJitter(t *testing.T) {
	ss := &scriptedSeams{}
	cfg := ss.config(3)
	cfg.Interval = time.Second
	for _, tc := range []struct {
		draw float64
		want time.Duration
	}{
		{0, 750 * time.Millisecond},
		{0.5, time.Second},
		{0.999999, 1249999 * time.Microsecond},
	} {
		cfg.Jitter = func() float64 { return tc.draw }
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := w.tickDelay()
		if diff := got - tc.want; diff < -time.Millisecond || diff > time.Millisecond {
			t.Fatalf("draw %v: delay %v, want ~%v", tc.draw, got, tc.want)
		}
	}
}

// TestWatchdogResumeConfigValidation: resume mode is only buildable over
// HTTP seams with a group to rediscover.
func TestWatchdogResumeConfigValidation(t *testing.T) {
	ss := &scriptedSeams{}
	cfg := ss.config(3)
	cfg.Resume = true
	cfg.Endpoints = []string{"http://a", "http://b"}
	if _, err := New(cfg); err == nil {
		t.Fatal("resume accepted with injected seams it cannot rebuild")
	}
	httpCfg := Config{Primary: "http://a", Standby: "http://b", Resume: true, Endpoints: []string{"http://a"}}
	if _, err := New(httpCfg); err == nil {
		t.Fatal("resume accepted with a single endpoint")
	}
	httpCfg.Endpoints = []string{"http://a", "http://b"}
	if _, err := New(httpCfg); err != nil {
		t.Fatalf("valid resume config rejected: %v", err)
	}
}
