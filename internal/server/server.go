// Package server is the online admission-control plane of gridbwd: the
// paper's §3–5 admission algorithms behind a concurrent, wall-clock
// HTTP/JSON service instead of a batch DES driver.
//
// Concurrency is sharded the way equation (1) is: the constraint system
// is independent per access point, so the capacity ledger (alloc.Sharded)
// keeps one lock per ingress/egress profile and an admission only holds
// the two shards its route touches — submissions through disjoint point
// pairs decide fully in parallel. What remains global — the service
// clock, the expiry event queue, the reservation registry, ID allocation
// and the idempotency cache — lives behind one small mutex (s.mu) whose
// critical sections are map operations, never admission steps.
//
// Lock order: s.mu first, shard locks second (the expiry and cancel paths
// revoke through the sharded ledger while holding s.mu). The admission
// path holds shard locks without s.mu and must never take it; it re-enters
// s.mu only after releasing the pair.
//
// Admission is the paper's §5.1 GREEDY step and the very function the
// simulator runs (internal/admit): a request is decided once, at
// max(NotBefore, now), at the configured policy's rate, against the time
// profiles of its two points. A NotBefore in the future books a fixed
// rectangle ahead; no start is ever slid later in a window (core.Planner
// is the service that searches). Grants expire as their τ(r) passes: a
// des.Simulator orders the expiry events and a background goroutine sleeps
// until the next deadline (des.Next) and fires them against real time,
// returning capacity to the ledger.
//
// The whole control-plane state — capacities, policy, clock, counters and
// every live reservation — round-trips through a Snapshot, written as a
// WAL-framed checkpoint, so a restarted daemon resumes without ever
// violating the capacity constraint of equation (1): restore replays the
// live grants and holds into a fresh ledger, which re-checks the constraint
// system. State is only ever rebuilt two ways — one snapshot installer
// (snapshot.go: NewFromSnapshot and a follower's Reseed) and one event
// replayer (replication.go: ApplyEvents for a boot's WAL suffix,
// ApplyShipped for a follower's stream) — and both, like the live paths,
// change it through the one set of transitions in state.go.
package server

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"gridbw/internal/alloc"
	"gridbw/internal/core"
	"gridbw/internal/des"
	"gridbw/internal/hold"
	"gridbw/internal/metrics"
	"gridbw/internal/policy"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// Config describes the platform a Server admits onto.
type Config struct {
	// Ingress and Egress list the access-point capacities.
	Ingress, Egress []units.Bandwidth
	// Policy names the bandwidth-assignment policy ("minbw", "f=<x>", …);
	// defaults to "minbw".
	Policy string
	// Clock supplies wall time; defaults to time.Now. Tests inject a
	// manual clock for deterministic expiry.
	Clock func() time.Time
	// Decisions, when non-nil, receives every admission event the WAL
	// records, in the same order: an in-process tap, not a durable log.
	Decisions trace.DecisionSink
	// WAL, when non-nil, is the durable framed decision log: every event
	// is appended to it (under the fsync policy the WAL was opened with)
	// and it doubles as the replication stream a follower pulls. The
	// server does not own it — the caller opens and closes it.
	WAL *wal.Log
	// Follow, when non-empty, boots the server as a read-only follower of
	// the primary daemon at this base URL: submissions and cancels answer
	// ErrReadOnly until Promote. StartFollowing begins the pull loop.
	Follow string
	// Peers lists the base URLs of every OTHER replication-group member, so
	// the group has len(Peers)+1 members. It is the node's vote set: a
	// follower that has peers promotes only after a majority of the group
	// (its own recorded vote plus cluster.Majority(len(Peers)+1)-1 of
	// theirs) endorsed it, and refuses otherwise; one without promotes on
	// its own authority. It is also where a follower looks when its pull
	// source stops answering or turns out to be a deposed primary: it
	// surveys the peers for the epoch-dominant live primary and re-points
	// its pull loop at it, so the losing follower of an election converges
	// onto the winner instead of pulling a dead endpoint forever. Listing
	// the node itself is tolerated and counts for nothing — in a survey it
	// answers as a follower, in a vote round its grant is ignored.
	Peers []string
	// Epoch seeds the fencing epoch; 0 loads it from the WAL directory
	// (or starts at 1). Promotion increments and persists it.
	Epoch uint64
	// FinishedRetention bounds how many expired/cancelled reservations
	// stay queryable via Lookup before the oldest are evicted; <= 0 means
	// the default of 4096. The idempotency cache shares the same bound.
	// Both caches are FIFO: once a reservation ID is evicted, Lookup and
	// Cancel answer ErrNotFound (HTTP 404), and once a key is evicted a
	// submission reusing it books a fresh reservation.
	FinishedRetention int
	// MaxInFlight bounds concurrently-served submissions at the HTTP
	// layer; excess requests are shed with 429 Too Many Requests rather
	// than queued without bound. 0 means the default of 64; negative
	// disables shedding.
	MaxInFlight int
	// RetryAfter is the backoff hint attached to shed responses;
	// defaults to 1s.
	RetryAfter time.Duration
	// MaxBatch bounds how many submissions one POST /v1/batch may carry;
	// 0 means the default of 1024.
	MaxBatch int
	// ReplID names this node inside its replication group: followers
	// present it on every pull (so the primary can track per-follower lag
	// and count their cursors as durability acks) and it is the candidate
	// identity in promotion votes. Empty is allowed for single-node or
	// legacy pair deployments — an anonymous follower still replicates,
	// but its acks cannot satisfy a sync-ack quorum.
	ReplID string
	// SyncMode selects the synchronous-ack durability mode for the decide
	// pipeline: "off" (or empty) acks the client as soon as the decision
	// is WAL'd locally, "one" parks the response until one follower's
	// cursor passes the decision's WAL frame, and "quorum" waits for
	// SyncAcks followers. A wait that outlives SyncTimeout degrades to
	// async (the admission still answers) and bumps the sync_degraded
	// counter rather than failing the submission.
	SyncMode string
	// SyncAcks is the follower-ack count "quorum" mode waits for — for a
	// group of G members, G/2 followers (the majority minus the primary
	// itself); <= 0 means 1.
	SyncAcks int
	// SyncTimeout bounds every synchronous-ack wait; 0 means 2s.
	SyncTimeout time.Duration
}

const (
	defaultFinishedRetention = 4096
	defaultMaxInFlight       = 64
	defaultRetryAfter        = time.Second
	defaultMaxBatch          = 1024
	defaultSyncTimeout       = 2 * time.Second
)

// State is a reservation's lifecycle position, named as the wire names it.
type State string

const (
	StateBooked    State = wire.StateBooked
	StateActive    State = wire.StateActive
	StateExpired   State = wire.StateExpired
	StateCancelled State = wire.StateCancelled
	StateRejected  State = wire.StateRejected
)

// Submission is an online reservation request. Times are absolute service
// time (seconds since the daemon epoch); NotBefore values in the past are
// clamped to now.
type Submission struct {
	// From and To are ingress and egress point indices.
	From, To int
	Volume   units.Volume
	// NotBefore is the earliest admissible start; zero means "now".
	NotBefore units.Time
	// Deadline is the absolute instant by which the transfer must finish.
	Deadline units.Time
	// MaxRate is the host transmission cap.
	MaxRate units.Bandwidth
	// IdempotencyKey, when non-empty, makes the submission safely
	// retryable: a second Submit with the same key returns the original
	// decision instead of booking again.
	IdempotencyKey string
	// Durable parks the response until the decision's WAL frame is acked
	// by at least one follower (or SyncAcks of them when configured),
	// even when the server's SyncMode is "off" — the per-request opt-in
	// to synchronous replication.
	Durable bool
}

// Decision is the server's answer to a Submission or Lookup.
type Decision struct {
	ID       request.ID
	Accepted bool
	State    State
	// Rate, Sigma and Tau describe the grant of an accepted reservation.
	Rate  units.Bandwidth
	Sigma units.Time
	Tau   units.Time
	// Reason explains a rejection.
	Reason string
}

// Reservation is the full record of one live grant, exposed for
// independent verification (tests replay these into a fresh ledger).
type Reservation struct {
	Req   request.Request
	Grant request.Grant
	State State
}

// Errors mapped to HTTP statuses by the handler layer.
var (
	// ErrClosed reports a submission or cancel on a draining/closed server.
	ErrClosed = errors.New("server: closed")
	// ErrNotFound reports an unknown (or evicted) reservation ID.
	ErrNotFound = errors.New("server: no such reservation")
	// ErrFinished reports a cancel of an already expired or cancelled
	// reservation.
	ErrFinished = errors.New("server: reservation already finished")
	// ErrReadOnly reports a write on a follower replica: it applies the
	// primary's shipped decisions and refuses its own until promoted.
	ErrReadOnly = errors.New("server: read-only replica (promote to accept writes)")
	// ErrNotFollower reports a shipped-batch apply on a server that is
	// not following anyone (already the primary, or promoted since).
	ErrNotFollower = errors.New("server: not a follower")
	// ErrDurabilityLost reports a durable admission refused because the
	// WAL fail-stopped after a disk fault: nothing this process promises
	// to persist can be trusted to reach disk again, so callers that
	// asked for durability get a NACK instead of a lie. Non-durable
	// admissions keep flowing with durability_degraded flipped; a restart
	// re-recovers the WAL and clears the condition.
	ErrDurabilityLost = errors.New("server: WAL poisoned by disk fault, durable admissions refused until restart")
)

// FencedError reports a shipped batch refused because its fencing epoch
// is older than the receiver's — the sender is a deposed primary.
type FencedError struct {
	Batch, Current uint64
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("server: batch epoch %d fenced off (current epoch %d)", e.Batch, e.Current)
}

// idemEntry is one idempotency-cache slot. It is created as a placeholder
// the moment a keyed submission enters the pipeline — a concurrent retry
// with the same key waits on done instead of booking a second time — and
// filled with the decision (or error) when the submission settles.
type idemEntry struct {
	done chan struct{} // closed once d/err are valid
	d    Decision
	err  error
}

// Server is the concurrent admission-control plane.
type Server struct {
	net        *topology.Network
	pol        policy.Policy
	policyName string
	clock      func() time.Time
	decisions  trace.DecisionSink
	wal        *wal.Log
	maxBatch   int

	// Sync-ack durability: acks tracks each follower's pull cursor (its
	// durability acknowledgement); syncNeed is the follower count every
	// submission waits for (0: only Durable-flagged ones wait, for
	// durableNeed followers) within syncTimeout. replID names this node
	// in its replication group.
	acks        *wal.Acks
	syncMode    string
	syncNeed    int
	durableNeed int
	syncTimeout time.Duration
	replID      string
	peers       []string // the other group members' base URLs, immutable

	// mu is the small global section: the service clock and expiry queue
	// and the reservation state (state.go: registry, holds, idempotency
	// cache, ID allocation, counters). Admission steps never run under it;
	// the state's ledger has its own per-point locks and is the one part the
	// admission step touches without mu (see the package comment for the
	// lock order).
	mu sync.Mutex
	state
	sim    *des.Simulator
	epoch  time.Time // wall instant of service time 0
	repl   replState // replication role, fencing epoch, pull cursor
	closed bool
	// record is the WAL record buffer appendEventLocked encodes into, reused
	// under mu: wal.Append copies the bytes it is given.
	record []byte
	// installing marks the scratch server a snapshot replays onto
	// (replaySnapshot), the one replayer that takes an accept without a
	// route: a decision the snapshot keeps for its idempotency key alone.
	installing bool

	// promoting serializes Promote calls; it is taken before mu and held
	// across the vote round, which mu is not.
	promoting sync.Mutex
	// checkpointing serializes the writers of the WAL directory's
	// checkpoint (WriteCheckpoint, Reseed); it is taken before mu, so the
	// state a write captures is never older than the file it replaces.
	checkpointing sync.Mutex

	// watchdogState, when set, reports the in-process failover watchdog's
	// state for the metrics surface. The callback must not call back into
	// the server (it is invoked outside s.mu, but re-entry would surprise).
	watchdogState func() string

	// inflight is the admission semaphore the HTTP layer acquires around
	// each submission; nil when shedding is disabled.
	inflight   chan struct{}
	retryAfter time.Duration

	// loopNext is the event instant the expiry loop armed its timer for
	// (+inf when no event is pending), guarded by mu. Accepts only poke
	// the loop when their expiry precedes it — waking the loop for an
	// event it would sleep past anyway is pure mutex contention on the
	// admission hot path.
	loopNext units.Time

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
	// conns is every connection taken over from net/http: the replication
	// streams served and the call streams. Close ends them and waits,
	// since the HTTP server forgets a connection once it is taken over.
	conns Streams
}

// New validates cfg and starts a server with the service clock at 0.
// Callers must Close it to stop the expiry loop.
func New(cfg Config) (*Server, error) {
	net, err := topology.New(topology.Config{Ingress: cfg.Ingress, Egress: cfg.Egress})
	if err != nil {
		return nil, err
	}
	s, err := newServer(cfg, net, cfg.Policy)
	if err != nil {
		return nil, err
	}
	if err := s.initRepl(cfg, 0); err != nil {
		return nil, err
	}
	go s.loop()
	return s, nil
}

// newServer builds an idle server for net with the service clock at 0: no
// replication role resolved yet, no expiry loop running. policyName
// defaults to "minbw".
func newServer(cfg Config, net *topology.Network, policyName string) (*Server, error) {
	if policyName == "" {
		policyName = "minbw"
	}
	pol, err := core.ParsePolicy(policyName)
	if err != nil {
		return nil, err
	}
	switch cfg.SyncMode {
	case "", "off", "one", "quorum":
	default:
		return nil, fmt.Errorf("server: unknown sync mode %q (want off, one or quorum)", cfg.SyncMode)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	retention := cfg.FinishedRetention
	if retention <= 0 {
		retention = defaultFinishedRetention
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = defaultMaxInFlight
	}
	var inflight chan struct{}
	if maxInFlight > 0 {
		inflight = make(chan struct{}, maxInFlight)
	}
	retryAfter := cfg.RetryAfter
	if retryAfter <= 0 {
		retryAfter = defaultRetryAfter
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}
	syncAcks := cfg.SyncAcks
	if syncAcks <= 0 {
		syncAcks = 1
	}
	syncMode := cfg.SyncMode
	if syncMode == "" {
		syncMode = "off"
	}
	syncNeed := 0
	switch syncMode {
	case "one":
		syncNeed = 1
	case "quorum":
		syncNeed = syncAcks
	}
	syncTimeout := cfg.SyncTimeout
	if syncTimeout <= 0 {
		syncTimeout = defaultSyncTimeout
	}
	// Every entry is born here with its expiry callback bound, so whichever
	// route registers it — admission, replay, snapshot install — it can be
	// armed without a new closure.
	entries := new(sync.Pool)
	s := &Server{
		state:      *newState(net, retention, entries),
		net:        net,
		pol:        pol,
		policyName: policyName,
		clock:      clock,
		epoch:      clock(),
		decisions:  cfg.Decisions,
		wal:        cfg.WAL,
		maxBatch:   maxBatch,
		acks:       wal.NewAcks(clock),
		syncMode:   syncMode,
		syncNeed:   syncNeed,
		// A Durable submission under mode "off" or "one" still honors the
		// configured group size, so "any one follower" vs "a majority" is
		// one knob (SyncAcks) regardless of mode.
		durableNeed: syncAcks,
		syncTimeout: syncTimeout,
		replID:      cfg.ReplID,
		peers:       cfg.Peers,
		sim:         des.New(),
		inflight:    inflight,
		retryAfter:  retryAfter,
		loopNext:    units.Time(math.Inf(1)),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	entries.New = func() any {
		e := new(entry)
		e.fire = func(*des.Simulator) { s.fireExpire(e) }
		return e
	}
	return s, nil
}

// SetWatchdogState registers a callback reporting the in-process failover
// watchdog's position in the promotion ladder ("follower", "suspect",
// "promoting", "primary") so /v1/metricsz can expose it as a
// gauge.
func (s *Server) SetWatchdogState(fn func() string) {
	s.mu.Lock()
	s.watchdogState = fn
	s.mu.Unlock()
}

// watchdogStateNow reports the registered watchdog's state, or "" when no
// watchdog runs in this process. The callback runs outside s.mu.
func (s *Server) watchdogStateNow() string {
	s.mu.Lock()
	fn := s.watchdogState
	s.mu.Unlock()
	if fn == nil {
		return ""
	}
	return fn()
}

// syncNeedFor reports how many follower acks a submission must wait for:
// the configured mode's count, raised to the group quorum when the
// submission opted into Durable. 0 means no wait.
func (s *Server) syncNeedFor(durable bool) int {
	need := s.syncNeed
	if durable && s.durableNeed > need {
		need = s.durableNeed
	}
	return need
}

// FollowerAcks reports the per-follower acknowledged positions this
// primary has observed on its pull endpoint.
func (s *Server) FollowerAcks() map[string]wal.FollowerAck { return s.acks.Snapshot() }

// WALPoisoned reports whether the WAL fail-stopped after a disk fault
// (see wal.ErrPoisoned). While poisoned the server refuses durable
// admissions with ErrDurabilityLost and never reports replicated
// durability; only a restart clears it.
func (s *Server) WALPoisoned() bool {
	return s.wal != nil && s.wal.Poisoned() != nil
}

// Network reports the platform.
func (s *Server) Network() *topology.Network { return s.net }

// PolicyName reports the configured bandwidth-assignment policy.
func (s *Server) PolicyName() string { return s.policyName }

// MaxBatch reports the per-call submission bound of SubmitBatch.
func (s *Server) MaxBatch() int { return s.maxBatch }

// Now reports the current service time.
func (s *Server) Now() units.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	return s.sim.Now()
}

// wallNow maps the wall clock onto service time.
func (s *Server) wallNow() units.Time {
	return units.Time(s.clock().Sub(s.epoch).Seconds())
}

// advanceLocked moves the service clock to wall time, firing due expiry
// events. Callers hold s.mu.
func (s *Server) advanceLocked() {
	if t := s.wallNow(); t > s.sim.Now() {
		s.sim.RunUntil(t)
	}
}

// loop is the wall-clock expiry driver: it sleeps until the next grant's
// τ(r) (or until an admission re-arms it) and advances the event clock.
func (s *Server) loop() {
	defer close(s.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		s.mu.Lock()
		s.advanceLocked()
		next, ok := s.sim.Next()
		if ok {
			s.loopNext = next
		} else {
			s.loopNext = units.Time(math.Inf(1))
		}
		epoch := s.epoch // replay re-anchors it under s.mu
		s.mu.Unlock()

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		sleep := time.Hour
		if ok {
			sleep = epoch.Add(time.Duration(float64(next) * float64(time.Second))).Sub(s.clock())
			if sleep < 0 {
				sleep = 0
			}
		}
		timer.Reset(sleep)

		select {
		case <-s.stop:
			return
		case <-s.kick:
		case <-timer.C:
		}
	}
}

// poke re-arms the expiry loop after the event queue changed.
func (s *Server) poke() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Close stops the expiry loop and refuses further submissions and
// cancels. Read operations (Lookup, Status, Snapshot) keep working so a
// draining daemon can persist its final state.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	pullDone := s.stopPullLocked()
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	s.conns.Close()
	if pullDone != nil {
		<-pullDone
	}
	return nil
}

// validateSubmission rejects submissions that name no access point of this
// platform or carry a key past MaxKeyBytes; admit.Check judges the
// quantities. It reads only immutable
// state, so it needs no lock.
func (s *Server) validateSubmission(sub Submission) error {
	if sub.From < 0 || sub.From >= s.net.NumIngress() {
		return fmt.Errorf("server: ingress %d out of range [0,%d)", sub.From, s.net.NumIngress())
	}
	if sub.To < 0 || sub.To >= s.net.NumEgress() {
		return fmt.Errorf("server: egress %d out of range [0,%d)", sub.To, s.net.NumEgress())
	}
	return wire.CheckKey("server: idempotency key", sub.IdempotencyKey)
}

// Submit decides a reservation request against the live ledger. The
// returned error is reserved for malformed submissions (bad indices,
// non-positive volume or rate) and ErrClosed; an infeasible request is a
// normal rejected Decision, not an error. Submit is the one-element case
// of the batched pipeline, so both paths share every locking and
// idempotency rule.
func (s *Server) Submit(sub Submission) (Decision, error) {
	res, err := s.submitOne(sub)
	return res.Decision, err
}

// acceptLocked publishes an admitted reservation: the grant was already
// committed to the sharded ledger by the admission phase; here the entry
// becomes visible, its expiry is scheduled and the accept is audited with
// the idempotency key it was submitted under.
func (s *Server) acceptLocked(r request.Request, g request.Grant, key string) Decision {
	e := s.register(r, g)
	s.armExpiryLocked(e)
	s.logLocked(trace.EventAccept, e.req, g, "", key)
	return s.decisionLocked(e)
}

func (s *Server) rejectLocked(r request.Request, reason, key string) Decision {
	s.stats.RecordReject()
	s.logLocked(trace.EventReject, r, request.Grant{}, reason, key)
	return Decision{ID: r.ID, State: StateRejected, Reason: reason}
}

// armLocked schedules fn at service time at — or now, if the clock already
// passed it (while an admission ran outside s.mu, or while this replica
// followed): the event then fires on the next advance instead of panicking
// des. The expiry loop is only poked when the event precedes what it sleeps
// towards.
func (s *Server) armLocked(at units.Time, fn des.Event) des.Handle {
	if now := s.sim.Now(); at < now {
		at = now
	}
	h := s.sim.At(at, fn)
	if at < s.loopNext {
		s.poke()
	}
	return h
}

// One arming helper per timer the state waits on, for the live path, replay
// and armTimersLocked alike; a follower arms none.

// armExpiryLocked schedules a live reservation's expiry at τ.
func (s *Server) armExpiryLocked(e *entry) { e.expire = s.armLocked(e.grant.Tau, e.fire) }

// armHoldLocked schedules the timer of hold e that delivers k — the
// rollback at its TTL or the on-time release at τ — through the live hold
// step; a zero k arms nothing.
func (s *Server) armHoldLocked(e *hold.Entry, k hold.Kind) {
	if k != 0 {
		m := hold.Msg{Kind: k, Key: e.Key}
		s.armLocked(e.Due(k), func(*des.Simulator) { s.holdStepLocked(m) })
	}
}

// fireExpire retires the reservation held by e when its τ(r) passes. It
// runs with s.mu held: every sim.RunUntil call site is inside
// advanceLocked. Revoking takes the route's shard locks while holding
// s.mu — the one permitted nesting direction. The registry identity check
// guards against stale events on recycled entries.
func (s *Server) fireExpire(e *entry) {
	if cur, ok := s.resv[e.req.ID]; !ok || cur != e || e.state != StateActive {
		return
	}
	s.finish(e, StateExpired, s.sim.Now())
	s.logLocked(trace.EventExpire, e.req, e.grant, "", "")
}

// liveStateLocked derives booked vs active from the clock.
func (s *Server) liveStateLocked(e *entry) State {
	if e.state != StateActive {
		return e.state
	}
	if s.sim.Now() < e.grant.Sigma {
		return StateBooked
	}
	return StateActive
}

// writableLocked is the gate of every call that writes — submit, cancel and
// the three hold calls: a draining server refuses them, and so does a
// follower, whose only writer is the shipped stream.
func (s *Server) writableLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.repl.following {
		return ErrReadOnly
	}
	return nil
}

// followingLocked is the gate of what only a follower does: apply the
// shipped stream, re-seed, run the pull loop.
func (s *Server) followingLocked() error {
	if s.closed {
		return ErrClosed
	}
	if !s.repl.following {
		return ErrNotFollower
	}
	return nil
}

// Cancel revokes a live reservation, returning its capacity at once. A
// reservation may be cancelled after its σ(r) — the grid job it fed may
// have aborted — which frees the remaining window too. A draining server
// refuses cancels with ErrClosed, exactly like Submit: its expiry loop has
// stopped, so mutating the ledger would leave capacity accounting adrift.
func (s *Server) Cancel(id request.ID) (Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return Decision{}, err
	}
	s.advanceLocked()
	e, ok := s.resv[id]
	if !ok {
		return Decision{}, ErrNotFound
	}
	if e.state != StateActive {
		return s.decisionLocked(e), ErrFinished
	}
	s.sim.Cancel(e.expire)
	s.finish(e, StateCancelled, s.sim.Now())
	s.logLocked(trace.EventCancel, e.req, e.grant, "", "")
	return s.decisionLocked(e), nil
}

// Lookup reports the decision record of a known reservation.
func (s *Server) Lookup(id request.ID) (Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	e, ok := s.resv[id]
	if !ok {
		return Decision{}, ErrNotFound
	}
	return s.decisionLocked(e), nil
}

func (s *Server) decisionLocked(e *entry) Decision {
	return Decision{
		ID: e.req.ID, Accepted: true, State: s.liveStateLocked(e),
		Rate: e.grant.Bandwidth, Sigma: e.grant.Sigma, Tau: e.grant.Tau,
	}
}

// PointStatus is the live occupancy of one access point.
type PointStatus struct {
	Dir         topology.Direction
	Point       topology.PointID
	Capacity    units.Bandwidth
	Used        units.Bandwidth
	Utilization float64
}

// Status is the instantaneous control-plane view.
type Status struct {
	Now            units.Time
	Policy         string
	Role           string // "primary" or "follower"
	Epoch          uint64 // fencing epoch
	Booked, Active int
	Stats          metrics.Online
	Points         []PointStatus
}

// Status reports the live view at the current service time.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	st := Status{
		Now: s.sim.Now(), Policy: s.policyName,
		Role: s.roleLocked(), Epoch: s.repl.epoch, Stats: s.stats,
	}
	for _, e := range s.resv {
		switch s.liveStateLocked(e) {
		case StateBooked:
			st.Booked++
		case StateActive:
			st.Active++
		}
	}
	in, eg := s.ledger.UsageAt(s.sim.Now())
	for i, used := range in {
		st.Points = append(st.Points, pointStatus(topology.Ingress, i, s.net.Bin(topology.PointID(i)), used))
	}
	for e, used := range eg {
		st.Points = append(st.Points, pointStatus(topology.Egress, e, s.net.Bout(topology.PointID(e)), used))
	}
	return st
}

func pointStatus(dir topology.Direction, i int, cap, used units.Bandwidth) PointStatus {
	ps := PointStatus{Dir: dir, Point: topology.PointID(i), Capacity: cap, Used: used}
	if cap > 0 {
		ps.Utilization = float64(used) / float64(cap)
	}
	return ps
}

// ShardStats reports the sharded ledger's per-point lock traffic.
func (s *Server) ShardStats() []alloc.ShardStat { return s.ledger.Stats() }

// LiveReservations returns the requests and grants currently holding
// capacity, in ID order — the input for independent feasibility replay.
func (s *Server) LiveReservations() []Reservation {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	var out []Reservation
	for _, id := range s.liveIDs() {
		e := s.resv[id]
		out = append(out, Reservation{Req: e.req, Grant: e.grant, State: s.liveStateLocked(e)})
	}
	return out
}

// VerifyInvariant audits equation (1) across every shard and against the
// live registry (state.verify).
func (s *Server) VerifyInvariant() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verify()
}

// Closed reports whether the server is draining (readiness probe input).
func (s *Server) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// InFlightLimit reports the admission semaphore's size; 0 when shedding
// is disabled.
func (s *Server) InFlightLimit() int { return cap(s.inflight) }

// InFlight reports how many submissions currently hold a semaphore slot.
func (s *Server) InFlight() int { return len(s.inflight) }

// acquire takes an admission slot; false means the server is over its
// in-flight limit and the submission must be shed.
func (s *Server) acquire() bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	if s.inflight != nil {
		<-s.inflight
	}
}

// recordShed counts an overload-shed submission.
func (s *Server) recordShed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.RecordShed()
}

// recordBatch counts one served batch call and the submissions it carried.
func (s *Server) recordBatch(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.RecordBatch(n)
}

// recordPanic counts a recovered handler panic and records it in the WAL,
// so operators can see crashes that never reached a client.
func (s *Server) recordPanic(where string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	s.stats.RecordPanic()
	s.appendEventLocked(trace.Event{
		At: float64(s.sim.Now()), Kind: trace.EventPanic,
		Request: -1, Ingress: -1, Egress: -1,
		Reason: fmt.Sprintf("%s: %v", where, val),
	})
}

func (s *Server) logLocked(kind string, r request.Request, g request.Grant, reason, key string) {
	s.appendEventLocked(resvEvent(s.sim.Now(), kind, r, g, reason, key))
}

// resvEvent is the one encoder of a reservation record — grantFromEvent
// reads it back — for the live log and the snapshot alike.
func resvEvent(at units.Time, kind string, r request.Request, g request.Grant, reason, key string) trace.Event {
	return trace.Event{
		At: float64(at), Kind: kind, Request: int(r.ID),
		Ingress: int(r.Ingress), Egress: int(r.Egress),
		RateBps: float64(g.Bandwidth), SigmaS: float64(g.Sigma), TauS: float64(g.Tau),
		VolumeB: float64(r.Volume), MaxRateBps: float64(r.MaxRate),
		Reason: reason, Key: key,
	}
}

// appendEventLocked records one decision event in the durability chain:
// first the framed WAL (which doubles as the replication stream), then
// the plain decisions sink. Append failures must not fail admission; they
// are counted, flipping the durability-degraded health signal — the
// daemon keeps serving, but operators are paged about the hole.
func (s *Server) appendEventLocked(ev trace.Event) {
	var frame []byte
	if s.wal != nil {
		var err error
		if s.record, err = trace.AppendRecord(s.record[:0], &ev); err != nil {
			s.stats.RecordLogAppendFailure()
		} else {
			frame = s.record
		}
	}
	s.appendFrameLocked(ev, frame)
}

// appendFrameLocked is appendEventLocked for an event whose WAL payload
// already exists: a follower appends the frame its primary shipped, not a
// re-encoding of it, so the two logs hold the same bytes.
func (s *Server) appendFrameLocked(ev trace.Event, frame []byte) {
	if s.wal != nil && frame != nil {
		if _, err := s.wal.Append(frame); err != nil {
			s.stats.RecordLogAppendFailure()
		}
	}
	if s.decisions != nil {
		if err := s.decisions.Append(ev); err != nil {
			s.stats.RecordLogAppendFailure()
		}
	}
}
