package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gridbw/internal/metrics"
)

// Watchdog defaults for Config zero values.
const (
	defaultInterval     = 2 * time.Second
	defaultMisses       = 3
	defaultMaxLagBytes  = 1 << 20
	defaultProbeTimeout = 2 * time.Second
)

// probeClient is the watchdog's probe transport when Config.HTTP is nil.
var probeClient = &http.Client{Timeout: defaultProbeTimeout}

// Config wires a Watchdog to its cluster. HTTP deployments set Primary and
// Standby; a seam injected below stands in for the URL it would dial.
type Config struct {
	// Primary is the base URL whose /v1/healthz the watchdog probes.
	// Unused when Probe is injected (the in-process watchdog inside gridbwd
	// probes whichever primary its server follows at each tick).
	Primary string
	// Standby is the base URL promoted when the primary is declared dead.
	// Unused when StandbyStatus and Promote are injected (the in-process
	// watchdog inside gridbwd talks to its own server directly).
	Standby string
	// Interval is the base probe period; each tick is jittered by up to
	// ±25% so a fleet of watchdogs never probes in lockstep. 0 means 2s.
	Interval time.Duration
	// Misses is K, the consecutive probe failures required before the
	// primary is suspected; 0 means 3.
	Misses int
	// MaxLagBytes bounds how far behind the primary's frontier the standby
	// may be and still get promoted — promoting past it would discard
	// acked decisions. 0 means 1 MiB; negative disables the check.
	MaxLagBytes int64
	// HTTP overrides the probe transport; nil uses an internal client with
	// a 2s timeout.
	HTTP *http.Client

	// Probe, StandbyStatus and Promote are the I/O seams. Nil values probe
	// Primary's healthz, read Standby's replication status and POST
	// Standby's promote endpoint over HTTP. Tests (and the in-process
	// watchdog) inject functions instead. Whether a promote needs a
	// majority is the standby's business, not the watchdog's: a standby
	// that has peers runs its own vote round and refuses without one.
	Probe         func(ctx context.Context) error
	StandbyStatus func(ctx context.Context) (ReplicationStatus, error)
	Promote       func(ctx context.Context) (uint64, error)

	// Resume re-arms the watchdog after each completed failover instead
	// of returning from Run: the group's roles are rediscovered over
	// Endpoints (every member's base URL), the newly promoted primary
	// becomes the probe target, the most caught-up reachable follower
	// becomes the next candidate, and the ladder restarts — so one
	// long-running watchdog survives successive failovers. Requires the
	// HTTP seams (injected Probe/StandbyStatus/Promote cannot be rebuilt)
	// and at least two Endpoints.
	Resume    bool
	Endpoints []string

	// Sleep waits between ticks honoring ctx; nil means real time. Jitter
	// returns a uniform [0,1) draw for the tick jitter; nil uses a
	// time-derived default.
	Sleep  func(ctx context.Context, d time.Duration) error
	Jitter func() float64

	// OnTransition, when non-nil, observes every taken state-machine edge.
	OnTransition func(from, to State, in Input)
}

// Status is one consistent read of the watchdog's progress.
type Status struct {
	State  string           `json:"state"`
	Misses int              `json:"consecutive_misses"`
	Stats  metrics.Watchdog `json:"stats"`
	// Epoch is the fencing epoch the promotion installed; 0 until then.
	Epoch     uint64 `json:"epoch,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// Watchdog probes the primary and promotes the standby when it dies. One
// watchdog survives one failover — unless Config.Resume re-arms it
// against the new primary after each one.
type Watchdog struct {
	cfg           Config
	probe         func(ctx context.Context) error
	standbyStatus func(ctx context.Context) (ReplicationStatus, error)
	promote       func(ctx context.Context) (uint64, error)

	mu      sync.Mutex
	m       *Machine
	stats   metrics.Watchdog
	epoch   uint64
	lastErr string
}

// New validates cfg, fills the seams, and returns an idle watchdog.
func New(cfg Config) (*Watchdog, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = defaultInterval
	}
	if cfg.Misses <= 0 {
		cfg.Misses = defaultMisses
	}
	if cfg.MaxLagBytes == 0 {
		cfg.MaxLagBytes = defaultMaxLagBytes
	}
	if cfg.HTTP == nil {
		cfg.HTTP = probeClient
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	if cfg.Jitter == nil {
		cfg.Jitter = func() float64 {
			return float64(time.Now().UnixNano()%1000) / 1000
		}
	}
	w := &Watchdog{cfg: cfg, m: NewMachine(cfg.Misses)}
	w.probe, w.standbyStatus, w.promote = cfg.Probe, cfg.StandbyStatus, cfg.Promote
	if w.probe == nil && cfg.Primary == "" {
		return nil, errors.New("cluster: watchdog needs a primary URL (or an injected Probe)")
	}
	if (w.standbyStatus == nil || w.promote == nil) && cfg.Standby == "" {
		return nil, errors.New("cluster: watchdog needs a standby URL (or injected StandbyStatus and Promote)")
	}
	w.aim(cfg.Primary, cfg.Standby)
	if cfg.Resume {
		if cfg.Probe != nil || cfg.StandbyStatus != nil || cfg.Promote != nil {
			return nil, errors.New("cluster: resume mode cannot rebuild injected seams; use HTTP config")
		}
		if len(cfg.Endpoints) < 2 {
			return nil, errors.New("cluster: resume mode needs at least two endpoints to rediscover roles")
		}
	}
	return w, nil
}

// aim points the HTTP seams — those not injected — at a primary and a
// standby.
func (w *Watchdog) aim(primary, standby string) {
	hc := w.cfg.HTTP
	if w.cfg.Probe == nil {
		w.probe = func(ctx context.Context) error { return ProbeHealthz(ctx, hc, primary) }
	}
	if w.cfg.StandbyStatus == nil {
		w.standbyStatus = func(ctx context.Context) (ReplicationStatus, error) {
			return FetchStatus(ctx, hc, standby)
		}
	}
	if w.cfg.Promote == nil {
		w.promote = func(ctx context.Context) (uint64, error) { return PostPromote(ctx, hc, standby) }
	}
}

// State reports the current state name — the metricsz hook.
func (w *Watchdog) State() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.m.State().String()
}

// Status reports one consistent view of the watchdog's progress.
func (w *Watchdog) Status() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Status{
		State:     w.m.State().String(),
		Misses:    w.m.Misses(),
		Stats:     w.stats,
		Epoch:     w.epoch,
		LastError: w.lastErr,
	}
}

// step feeds the machine under the lock, surfacing taken edges.
func (w *Watchdog) step(in Input) State {
	w.mu.Lock()
	from := w.m.State()
	to := w.m.Step(in)
	if to != from {
		w.stats.RecordTransition()
	}
	w.mu.Unlock()
	if to != from && w.cfg.OnTransition != nil {
		w.cfg.OnTransition(from, to, in)
	}
	return to
}

func (w *Watchdog) setErr(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err == nil {
		w.lastErr = ""
	} else {
		w.lastErr = err.Error()
	}
}

// Tick runs one observation round: probe the primary, and — once the
// machine suspects it — check the standby's lag and drive the promote.
// Exported so tests (and gridbwctl's one-shot mode) can run the ladder
// without real time. The returned state is the machine's after the tick.
func (w *Watchdog) Tick(ctx context.Context) State {
	w.mu.Lock()
	state := w.m.State()
	w.mu.Unlock()
	if state == StatePrimary {
		return state
	}

	// Probe the primary while there is still a primary to probe.
	err := w.probe(ctx)
	miss := err != nil
	w.mu.Lock()
	w.stats.RecordProbe(miss)
	w.mu.Unlock()
	if miss {
		w.setErr(fmt.Errorf("probe: %w", err))
		state = w.step(ProbeMiss)
	} else {
		w.setErr(nil)
		state = w.step(ProbeOK)
	}
	if state != StateSuspect {
		return state
	}

	// Suspect: promote only if the standby is reachable, still a follower,
	// and close enough to the frontier that promotion loses nothing acked.
	rs, err := w.standbyStatus(ctx)
	if err != nil {
		// A standby we cannot see must not be promoted blind; hold.
		w.setErr(fmt.Errorf("standby status: %w", err))
		return state
	}
	if rs.Role == "primary" {
		w.mu.Lock()
		if w.epoch == 0 {
			w.epoch = rs.Epoch
		}
		w.mu.Unlock()
		return w.step(StandbyIsPrimary)
	}
	if w.cfg.MaxLagBytes >= 0 && rs.LagBytes > w.cfg.MaxLagBytes {
		w.mu.Lock()
		w.stats.RecordLagHold()
		w.mu.Unlock()
		w.setErr(fmt.Errorf("standby lag %d bytes exceeds promote bound %d", rs.LagBytes, w.cfg.MaxLagBytes))
		return w.step(LagTooFar)
	}
	state = w.step(LagOK)
	if state != StatePromoting {
		return state
	}

	// The promote is the election: a standby that has peers collects its
	// majority before it installs an epoch, and a denied round comes back
	// as a failed promote — suspect again, the whole ladder re-runs next
	// tick, so a standby that never reaches a majority is never promoted.
	epoch, err := w.promote(ctx)
	w.mu.Lock()
	w.stats.RecordPromoteAttempt(err == nil)
	if err == nil {
		w.epoch = epoch
	}
	w.mu.Unlock()
	if err != nil {
		w.setErr(fmt.Errorf("promote: %w", err))
		return w.step(PromoteFail)
	}
	w.setErr(nil)
	return w.step(PromoteOK)
}

// Run ticks on the jittered interval until the standby is primary or ctx
// is cancelled. Without Resume it returns nil after one completed
// failover; with Resume it re-arms against the rediscovered group and
// keeps guarding, so only ctx ends it.
func (w *Watchdog) Run(ctx context.Context) error {
	for {
		if w.Tick(ctx) == StatePrimary {
			if !w.cfg.Resume {
				return nil
			}
			if err := w.rearm(ctx); err != nil {
				// The group may still be settling (the promoted primary
				// not yet serving, no follower re-attached); keep trying
				// on the tick cadence.
				w.setErr(fmt.Errorf("rearm: %w", err))
			}
		}
		if err := w.cfg.Sleep(ctx, w.tickDelay()); err != nil {
			return err
		}
	}
}

// rearm points the watchdog at the group's current roles: the
// epoch-dominant primary becomes the probe target, the most caught-up
// follower that answered the next candidate, and the ladder restarts from
// follower. Only meaningful with HTTP seams — New refuses Resume with
// injected ones.
func (w *Watchdog) rearm(ctx context.Context) error {
	primary, standby, err := Survey(ctx, w.cfg.HTTP, w.cfg.Endpoints).Roles()
	if err != nil {
		return err
	}
	w.aim(primary, standby)
	w.mu.Lock()
	w.cfg.Primary, w.cfg.Standby = primary, standby
	w.m = NewMachine(w.cfg.Misses)
	w.lastErr = ""
	w.mu.Unlock()
	if w.cfg.OnTransition != nil {
		// Surface the re-arm as a synthetic edge so operators watching the
		// transition stream see the new lifetime begin.
		w.cfg.OnTransition(StatePrimary, StateFollower, ProbeOK)
	}
	return nil
}

// tickDelay jitters the base interval by ±25% so watchdog fleets spread
// their probes instead of stampeding a recovering primary.
func (w *Watchdog) tickDelay() time.Duration {
	d := w.cfg.Interval
	frac := 0.75 + 0.5*w.cfg.Jitter()
	return time.Duration(float64(d) * frac)
}
