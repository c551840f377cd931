package server

// Log-shipping replication. The primary's WAL doubles as the replication
// stream: a follower opens GET /v1/replication/pull with its cursor and
// offers to upgrade the connection; the primary takes it over and writes
// the decision records past the cursor down it as they are appended, and
// the follower writes its cursor back after each batch it applied — the
// durability ack a sync-ack submit waits for. A primary that cannot take the
// connection over answers one batch as JSON instead and the follower asks
// again (the long poll every version before the stream spoke). The
// follower replays each batch into its own sharded ledger — and into its
// own WAL, so a promoted follower owns a complete local history.
//
// Safety rests on three properties:
//
//   - Fencing: every shipped batch carries the sender's epoch. A receiver
//     whose epoch is higher refuses the batch outright, so a deposed
//     primary — still running after its follower was promoted — can never
//     push its decisions into the new primary's lineage.
//   - Idempotent apply: the follower's pull cursor is recorded after the
//     applied records (wal/cursor.go), so a crash can rewind it — and boot
//     refuses a record that outran the local log, so nothing can carry it
//     past them. Replay converges from any earlier cursor
//     (state.Machine.Apply).
//   - Verbatim frames: the primary ships its WAL payloads as they are and
//     the follower appends the bytes it received, so every member's log
//     holds the same frames and positions are comparable across the group
//     (what keeping the cursor across a failover relies on).
//   - Read-only while following: a follower answers every Submit and
//     Cancel with ErrReadOnly until promoted, so the only writer of its
//     ledger is the shipped stream. Promotion schedules the expiry timers
//     the follower deliberately never armed (shipped expire events played
//     that role), bumps and persists the fencing epoch, and records a
//     promote marker in the log.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"gridbw/internal/callplane"
	"gridbw/internal/cluster"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// Pull-loop tuning: the long-poll window the follower asks for, the batch
// bound, and the backoff band for transport errors.
const (
	pullWait        = 2 * time.Second
	pullMaxRecords  = 512
	pullMaxBytes    = 1 << 20
	pullBaseBackoff = 50 * time.Millisecond
	pullMaxBackoff  = 2 * time.Second
	// refollowAfter is how many consecutive transport failures against the
	// pull source a follower tolerates before probing the peer list for the
	// epoch-dominant live primary and re-pointing the loop. Three failures
	// at the doubling backoff is ~350ms — slow enough to ride out a restart
	// blip, fast enough that an election's losing follower converges onto
	// the winner promptly.
	refollowAfter    = 3
	refollowProbeTTL = 2 * time.Second
	// maxFollowerIDLen is the longest id a pull may present; a -repl-id is a
	// host name or a base URL.
	maxFollowerIDLen = 128
)

// The stream's clocks: the primary sends an empty batch after
// streamHeartbeat with nothing new, and each end gives up on a peer that
// has not taken a frame (primary) or sent one (follower) for streamIdle.
// Variables so tests can shrink them.
var (
	streamHeartbeat = pullWait
	streamIdle      = pullWait + 10*time.Second
)

// replState is the replication role of one server, guarded by s.mu.
type replState struct {
	// Member is this node as the election rules of internal/cluster see it:
	// its ReplID, whether it follows, the fencing epoch (grows on every
	// promotion), the next position to pull from the primary, and the
	// durable vote-once record — the highest epoch this node granted a
	// promotion vote in and the candidate it endorsed, persisted
	// (wal.SaveVote) before any grant leaves the node, so a crash-restart
	// cannot endorse a second candidate.
	cluster.Member
	source   string // primary base URL while following
	applied  uint64 // records applied since this process started
	lagBytes int64  // primary bytes not yet applied, from the last batch
	lastPull time.Time
	lastErr  string
	stopPull context.CancelFunc // cancels the pull loop's context
	pullDone chan struct{}
}

// initRepl resolves the fencing epoch — the larger of the snapshot's
// recorded value and the WAL directory's saved one, defaulting to 1; a
// promotion increments and persists it — loads the vote record and, when
// following, resumes from the pull cursor the WAL recovered. Called before
// the server goes concurrent.
func (s *Server) initRepl(cfg Config, snapEpoch uint64) error {
	s.repl.ID, s.repl.Epoch = cfg.ReplID, max(snapEpoch, 1)
	s.repl.Following = cfg.Follow != ""
	s.repl.source = strings.TrimRight(cfg.Follow, "/")
	if s.wal == nil {
		return nil
	}
	saved, err := s.wal.LoadEpoch()
	if err != nil {
		return err
	}
	v, err := s.wal.LoadVote()
	if err != nil {
		return err
	}
	s.repl.Epoch = max(s.repl.Epoch, saved)
	s.repl.VotedEpoch, s.repl.VotedFor = v.Epoch, v.Candidate
	if s.repl.Following {
		s.repl.Cursor = s.wal.Cursor()
	}
	return nil
}

func (s *Server) roleLocked() string {
	if s.repl.Following {
		return "follower"
	}
	return "primary"
}

// Epoch reports the current fencing epoch.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repl.Epoch
}

// Following reports whether the server is a read-only follower.
func (s *Server) Following() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repl.Following
}

// stopPullLocked signals the pull loop to exit and returns its done
// channel (nil when no loop was started). Callers wait outside s.mu.
func (s *Server) stopPullLocked() chan struct{} {
	if s.repl.stopPull == nil {
		return nil
	}
	s.repl.stopPull()
	return s.repl.pullDone
}

// ApplyShipped replays one pulled batch into a follower. The batch is
// fenced (an epoch older than the receiver's is refused — the sender is a
// deposed primary) and the apply is idempotent, so a cursor that rewound
// across a crash re-delivers harmlessly. Every element is decoded before
// anything is touched: a malformed one fails the batch with nothing
// applied and nothing appended. So does a negative lag, which only a corrupt
// batch reports and which the watchdog's promote gate would pass.
func (s *Server) ApplyShipped(b cluster.ShippedBatch) error {
	var sc shipScratch
	localEnd, err := s.applyShipped(&b, &sc)
	if err != nil {
		return err
	}
	s.saveCursor(b.Next, localEnd)
	return nil
}

// shipScratch is what a follower decodes shipped batches into. A stream
// keeps one for its life, so that a batch's payload list, its events and
// the refusal reasons they repeat are not allocated again per frame.
type shipScratch struct {
	batch  cluster.ShippedBatch
	events []trace.Event
	dec    trace.Decoder
}

// decode decodes the WAL payloads a primary shipped into sc's events,
// refusing the whole list on the first malformed one.
func (sc *shipScratch) decode(payloads [][]byte) ([]trace.Event, error) {
	sc.events = slices.Grow(sc.events[:0], len(payloads))[:len(payloads)]
	for i, p := range payloads {
		if err := sc.dec.Decode(p, &sc.events[i]); err != nil {
			return nil, fmt.Errorf("server: WAL record: %w", err)
		}
	}
	return sc.events, nil
}

// applyShipped is ApplyShipped without the cursor record: it decodes b into
// sc, applies it and returns the local end the cursor record carries.
func (s *Server) applyShipped(b *cluster.ShippedBatch, sc *shipScratch) (wal.Pos, error) {
	if b.LagBytes < 0 {
		return wal.Pos{}, fmt.Errorf("server: batch reports a negative lag of %d bytes", b.LagBytes)
	}
	events, err := sc.decode(b.Events)
	if err != nil {
		return wal.Pos{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.applyShippedLocked(b, events); err != nil {
		return wal.Pos{}, err
	}
	if s.wal == nil {
		return wal.Pos{}, nil
	}
	return s.wal.End(), nil
}

// saveCursor writes the cursor record after an applied batch: "everything
// before next is in my log, which ended at localEnd" — true, or the apply
// would have refused the batch on a poisoned log. It is written outside
// s.mu: it is ordered after the appends by the local end it carries, not by
// a lock or an fsync.
func (s *Server) saveCursor(next, localEnd wal.Pos) {
	if s.wal == nil {
		return
	}
	if err := s.wal.SaveCursor(next, localEnd); err != nil {
		s.mu.Lock()
		s.st.Stats.RecordLogAppendFailure()
		s.mu.Unlock()
	}
}

func (s *Server) applyShippedLocked(b *cluster.ShippedBatch, events []trace.Event) error {
	if err := s.followingLocked(); err != nil {
		return err
	}
	if b.Epoch < s.repl.Epoch {
		return &FencedError{Batch: b.Epoch, Current: s.repl.Epoch}
	}
	if b.Epoch > s.repl.Epoch {
		s.repl.Epoch = b.Epoch
		if s.wal != nil {
			if err := s.wal.SaveEpoch(b.Epoch); err != nil {
				s.st.Stats.RecordLogAppendFailure()
			}
		}
	}
	if !s.repl.Cursor.IsZero() && b.From != s.repl.Cursor {
		return fmt.Errorf("server: replication gap: batch starts at %v, cursor at %v", b.From, s.repl.Cursor)
	}
	s.beginGroupLocked()
	for i, ev := range events {
		if err := s.applyEventLocked(ev, b.Events[i]); err != nil {
			s.flushGroupLocked()
			return err
		}
	}
	s.flushGroupLocked()
	if s.wal != nil && s.wal.Poisoned() != nil {
		// The cursor this node sends back is its ack: moved past frames
		// the local log never took, it would let a quorum submit be
		// answered "replicated" on their strength. Fail-stop, as for a
		// primary: the pull loop halts on this error, and only a restart
		// — which re-reads what is really on disk — clears it.
		return ErrDurabilityLost
	}
	s.repl.Cursor = b.Next
	s.repl.applied += uint64(len(events))
	s.repl.lagBytes = b.LagBytes
	s.repl.lastPull = s.clock()
	return nil
}

// applyEventLocked replays one event and pulls the clock forward to it. A
// record Apply skips never re-enters the local WAL. frame is the payload a
// shipped event arrived as, appended to the local WAL as received; nil for a
// recovered event.
func (s *Server) applyEventLocked(ev trace.Event, frame []byte) error {
	if fresh, err := s.st.Apply(ev); err != nil || !fresh {
		return err
	}
	s.reanchorLocked(ev.At)
	if frame != nil {
		s.appendFrameLocked(ev, frame)
	}
	return nil
}

// reanchorLocked pulls the service clock forward to the primary's event
// time: a replica that booted later than its primary would otherwise sit
// hours behind, and promotion would misread every booked window. Only the
// epoch anchor moves — due expiries fire on the next ordinary advance,
// never in the middle of an apply. Replay refuses an instant the clock
// cannot run from, so at converts to a Duration without overflow.
func (s *Server) reanchorLocked(at float64) {
	if units.Time(at) > s.wallNow() {
		s.epoch = s.clock().Add(-time.Duration(at * float64(time.Second)))
	}
}

// Promote turns a follower into the primary: the pull loop stops, the
// fencing epoch grows and is persisted (so the fence survives a crash),
// every live reservation gets the expiry timer following had deferred,
// and a promote marker lands in the log. Promoting a primary is answered
// with ErrNotFollower and the unchanged epoch, making retries harmless.
//
// A node that has peers is one member of a group, and installs an epoch
// only after winning a majority of it: Promote runs the vote round itself —
// its own vote through HandleVote's durable vote-once path, then the peers,
// with s.mu released — and answers a *cluster.Refusal without one. Whoever
// asks (the in-process watchdog, an external one, an operator's curl) goes
// through the same gate. The epoch installed is cluster.Member.Install's,
// judged under the lock on the state as it stands after the round: two
// lineages must never share an epoch number.
func (s *Server) Promote() (uint64, error) {
	// One election at a time per candidate: a second caller waits and then
	// finds the node promoted, instead of outbidding the first one's round.
	s.promoting.Lock()
	defer s.promoting.Unlock()
	s.mu.Lock()
	me, closed := s.repl.Member, s.closed
	s.mu.Unlock()
	var won uint64
	if len(s.peers) > 0 && me.Following && !closed {
		// The kept signature supplies no context; the client's timeout bounds
		// each vote.
		tally := cluster.CollectVotes(context.TODO(), &http.Client{Timeout: refollowProbeTTL}, me.Bid(), s.HandleVote, s.peers)
		s.mu.Lock()
		s.st.Stats.RecordVoteRound(tally.Granted, tally.Denied, tally.Quorum)
		s.mu.Unlock()
		if err := tally.Err(); err != nil {
			return me.Epoch, err
		}
		won = tally.Epoch
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if !s.repl.Following {
		epoch := s.repl.Epoch
		s.mu.Unlock()
		return epoch, ErrNotFollower
	}
	epoch, err := s.repl.Install(won)
	if err != nil {
		// Stay a follower; the next attempt bids past the vote record.
		epoch = s.repl.Epoch
		s.mu.Unlock()
		return epoch, err
	}
	s.advanceLocked()
	s.repl.Following = false
	s.repl.source = ""
	s.repl.Epoch = epoch
	done := s.stopPullLocked()
	if s.wal != nil {
		if err := s.wal.SaveEpoch(epoch); err != nil {
			// The fence is not durable; keep serving, but flag it loudly.
			s.st.Stats.RecordLogAppendFailure()
		}
	}
	armed := s.st.ArmTimers()
	s.appendEventLocked(trace.Event{
		At: float64(s.sim.Now()), Kind: trace.EventPromote, Request: -1,
		Reason: fmt.Sprintf("epoch %d, %d live reservations", epoch, armed),
	})
	s.mu.Unlock()
	s.poke()
	if done != nil {
		<-done
	}
	return epoch, nil
}

// StartFollowing launches the background pull loop against the primary
// configured in Config.Follow. Calling it on a primary is ErrNotFollower;
// calling it twice is a no-op.
func (s *Server) StartFollowing() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.followingLocked(); err != nil {
		return err
	}
	if s.repl.stopPull != nil {
		return nil
	}
	// The loop's one context: every request it makes derives from it, so
	// stopping the loop aborts whatever is in flight.
	ctx, cancel := context.WithCancel(context.Background())
	s.repl.stopPull = cancel
	s.repl.pullDone = make(chan struct{})
	go s.pullLoop(ctx, s.repl.source, s.repl.pullDone)
	return nil
}

// pullFrom reports the cursor a pull asks from and the id it presents.
func (s *Server) pullFrom() (wal.Pos, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repl.Cursor, s.repl.ID
}

func (s *Server) setPullError(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.repl.lastErr = ""
	} else {
		s.repl.lastErr = err.Error()
	}
}

// pullLoop follows the primary: one pull session after another, each
// applying every batch it brings. Transport errors back off and retry;
// after refollowAfter of them in a row the loop probes the peer list for
// the epoch-dominant live primary and re-points itself — the fix for an
// election's losing follower, whose source is a dead endpoint. A source
// whose batches are fenced off (it is a deposed primary the follower has
// already out-epoched) triggers the same rediscovery immediately. A cursor
// the primary compacted away is re-seeded on the stream itself
// (followStream); divergence errors halt the loop — retrying cannot fix
// them, and continuing would corrupt the replica. The last error is
// surfaced on /v1/replication/status.
func (s *Server) pullLoop(ctx context.Context, source string, done chan struct{}) {
	defer close(done)
	hc := &http.Client{Timeout: pullWait + 10*time.Second}
	// A session can last as long as the primary does; its idle watchdog
	// stands in for the client timeout.
	sc := &http.Client{}
	backoff := pullBaseBackoff
	failures := 0
	// searching: the last probe of the peers found no primary. The group is
	// mid-election, so the loop probes again after every failed pull, on a
	// fixed pullBaseBackoff cadence, instead of letting a promotion that
	// lands just after a probe wait out a doubled transport backoff.
	searching := false
	applied := func() {
		failures, searching, backoff = 0, false, pullBaseBackoff
		s.setPullError(nil)
	}
	for ctx.Err() == nil {
		err := s.pullSession(ctx, sc, source, applied)
		if err == nil {
			continue
		}
		var bad *applyError
		if errors.As(err, &bad) {
			err = bad.err
			if errors.Is(err, ErrNotFollower) || errors.Is(err, ErrClosed) {
				return
			}
			var fenced *FencedError
			if errors.As(err, &fenced) {
				// The source is a deposed primary: this follower's epoch
				// already moved past the stream it serves. Find the lineage
				// that deposed it instead of halting.
				if next, ok := s.rediscoverPrimary(ctx, hc); ok && next != source {
					source = next
					backoff = pullBaseBackoff
					s.setPullError(nil)
					continue
				}
			}
			s.setPullError(err)
			return
		}
		s.setPullError(err)
		if failures++; len(s.peers) > 0 && (searching || failures >= refollowAfter) {
			failures = 0
			next, ok := s.rediscoverPrimary(ctx, hc)
			if ok && next != source {
				source = next
				backoff = pullBaseBackoff
				searching = false
				s.setPullError(nil)
				continue
			}
			if searching = !ok; searching {
				backoff = pullBaseBackoff
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if !searching {
			backoff = min(2*backoff, pullMaxBackoff)
		}
	}
}

// rediscoverPrimary surveys the configured peers and re-points the
// follower at the epoch-dominant live primary — the one with the highest
// epoch at or past this follower's own. Peers that are down, still
// followers, or on a superseded lineage are ignored (the probing node itself
// answers as a follower, so listing yourself among the peers is harmless).
// The pull cursor is kept — every follower appends the shipped frames to its
// own WAL as received, so positions are comparable across group members,
// and a genuine divergence still halts on the gap check.
func (s *Server) rediscoverPrimary(ctx context.Context, hc *http.Client) (string, bool) {
	if len(s.peers) == 0 {
		return "", false
	}
	ctx, cancel := context.WithTimeout(ctx, refollowProbeTTL)
	defer cancel()
	best, _, ok := cluster.Survey(ctx, hc, s.peers).Primary(s.Epoch())
	if ok {
		s.retarget(best)
	}
	return best, ok
}

// retarget re-points the follower's pull source, keeping the status
// surface in sync with what the pull loop actually polls.
func (s *Server) retarget(source string) {
	s.mu.Lock()
	if s.repl.Following {
		s.repl.source = source
	}
	s.mu.Unlock()
}

// applyError is a batch this follower received but could not apply.
type applyError struct{ err error }

func (e *applyError) Error() string { return e.err.Error() }
func (e *applyError) Unwrap() error { return e.err }

// pullSession runs one pull against source under the loop's context. The
// follower's id rides along so the primary can attribute the cursor: a
// presented cursor acknowledges that everything before it is applied on
// this follower and appended to its WAL under its own sync policy. The
// request offers to upgrade; a primary that takes the connection over
// answers 101 and streams batch after batch until one side fails, and the
// follower writes its cursor back after each batch it applied — the same
// ack, without a round trip. Any other primary answers one JSON batch, and
// the loop pulls again. applied runs after every batch that applied. An
// apply or re-seed failure comes back as an *applyError, anything else is
// the transport's — including a primary that sent no frame for streamIdle,
// and a compacted cursor answered 410 by a primary that cannot stream.
func (s *Server) pullSession(ctx context.Context, hc *http.Client, source string, applied func()) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var idle atomic.Bool
	watchdog := time.AfterFunc(streamIdle, func() { idle.Store(true); cancel() })
	defer watchdog.Stop()
	err := s.pullExchange(ctx, hc, source, watchdog, applied)
	var bad *applyError
	if err != nil && idle.Load() && !errors.As(err, &bad) {
		err = fmt.Errorf("server: pull: nothing from %s for %v: %w", source, streamIdle, err)
	}
	return err
}

func (s *Server) pullExchange(ctx context.Context, hc *http.Client, source string, watchdog *time.Timer, applied func()) error {
	cur, id := s.pullFrom()
	u := fmt.Sprintf("%s/v1/replication/pull?seg=%d&off=%d&max=%d&wait_ms=%d&id=%s",
		source, cur.Seg, cur.Off, pullMaxRecords, pullWait.Milliseconds(), url.QueryEscape(id))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("server: pull: %w", err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", cluster.ReplProtocol)
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("server: pull: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusSwitchingProtocols:
		rw, ok := resp.Body.(io.ReadWriter)
		if !ok || !strings.EqualFold(resp.Header.Get("Upgrade"), cluster.ReplProtocol) {
			return fmt.Errorf("server: pull: upgrade to %q, want %q", resp.Header.Get("Upgrade"), cluster.ReplProtocol)
		}
		// Ending the session — the loop stopping, or the watchdog — closes
		// the connection under a blocked read.
		defer context.AfterFunc(ctx, func() { resp.Body.Close() })()
		return s.followStream(rw, watchdog, applied)
	case http.StatusOK:
		var b cluster.ShippedBatch
		if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
			return fmt.Errorf("server: pull: decode: %w", err)
		}
		if err := s.ApplyShipped(b); err != nil {
			return &applyError{err}
		}
		applied()
		return nil
	case http.StatusGone:
		// Only the stream carries a re-seed: the primary is of an older
		// version, or cannot take the connection over. Retry until it can.
		return fmt.Errorf("server: pull: cursor %v compacted away on %s, which did not stream; a re-seed needs both ends on the replication stream", cur, source)
	}
	var apiErr wire.ErrorJSON
	msg := resp.Status
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	if json.Unmarshal(blob, &apiErr) == nil && apiErr.Error != "" {
		msg = apiErr.Error
	}
	return fmt.Errorf("server: pull: HTTP %d: %s", resp.StatusCode, msg)
}

// followStream applies the batches a primary streams down rw, writing the
// cursor back after each one, until a frame fails to arrive, decode or
// apply. A gone frame is followed by a checkpoint, which re-seeds the
// follower at the position it covers; batches from there follow. Every
// frame is decoded into the same scratch.
//
// The cursor frame goes back as soon as the batch is applied: it vouches
// for the appends the apply made, not for the cursor record, which only
// lets a restart resume past them (a restart that finds an older one
// re-pulls, and replay converges). So the record is written after the ack,
// off the primary's sync-ack wait.
func (s *Server) followStream(rw io.ReadWriter, watchdog *time.Timer, applied func()) error {
	var frame []byte
	var ack [cluster.AckBytes]byte
	var sc shipScratch
	b := &sc.batch
	for {
		var err error
		if frame, err = wire.ReadFrame(rw, frame); err != nil {
			return fmt.Errorf("server: pull: stream: %w", err)
		}
		watchdog.Reset(streamIdle)
		gone, err := cluster.DecodeReplFrameInto(frame, b)
		if err != nil {
			return fmt.Errorf("server: pull: stream: %w", err)
		}
		var localEnd wal.Pos
		if gone {
			snap, err := readCheckpoint(wal.NewFrameReader(rw, 0))
			if err != nil {
				return fmt.Errorf("server: pull: stream: re-seed: %w", err)
			}
			if err := s.Reseed(snap); err != nil { // writes its own cursor record
				return &applyError{err}
			}
			b.Next = snap.WALPos()
		} else if localEnd, err = s.applyShipped(b, &sc); err != nil {
			return &applyError{err}
		}
		_, err = rw.Write(cluster.AppendPos(ack[:0], b.Next))
		if !gone {
			s.saveCursor(b.Next, localEnd)
		}
		if err != nil {
			return fmt.Errorf("server: pull: stream: %w", err)
		}
		applied()
	}
}

// ReplicationStatus reports the replication role, epoch, cursor and lag.
func (s *Server) ReplicationStatus() cluster.ReplicationStatus {
	s.mu.Lock()
	rs := cluster.ReplicationStatus{
		Role: s.roleLocked(), ID: s.repl.ID, Epoch: s.repl.Epoch, Source: s.repl.source,
		Cursor: s.repl.Cursor, Applied: s.repl.applied, LagBytes: s.repl.lagBytes,
		LastError:  s.repl.lastErr,
		VotedEpoch: s.repl.VotedEpoch, VotedFor: s.repl.VotedFor,
	}
	if !s.repl.lastPull.IsZero() {
		rs.LastPullS = s.clock().Sub(s.repl.lastPull).Seconds()
	}
	s.mu.Unlock()
	rs.SyncMode = s.syncMode
	rs.SyncAcks = s.durableNeed
	if s.wal != nil {
		rs.WALRecords = s.wal.Records()
		rs.WALEnd = s.wal.End()
	}
	if rs.Role == "primary" && s.wal != nil {
		now := s.clock()
		for id, fa := range s.acks.Snapshot() {
			lag, err := s.wal.SizeBetween(fa.Pos, rs.WALEnd)
			if err != nil {
				lag = 0
			}
			if rs.Followers == nil {
				rs.Followers = make(map[string]cluster.FollowerStatus)
			}
			rs.Followers[id] = cluster.FollowerStatus{
				Cursor:   fa.Pos,
				LagBytes: lag,
				AgeS:     now.Sub(fa.Seen).Seconds(),
			}
		}
	}
	return rs
}

// handlePromote serves POST /v1/replication/promote. A refused promotion
// is a protocol answer, not a server fault: 409 with the Refusal as body.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	epoch, err := s.Promote()
	var refused *cluster.Refusal
	switch {
	case errors.Is(err, ErrClosed):
		callplane.WriteError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrNotFollower), err == nil:
		// Already the primary, or just became it: idempotent success.
		callplane.WriteJSON(w, http.StatusOK, cluster.PromoteJSON{Role: "primary", Epoch: epoch})
	case errors.As(err, &refused):
		callplane.WriteJSON(w, http.StatusConflict, refused)
	default:
		callplane.WriteError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	callplane.WriteJSON(w, http.StatusOK, s.ReplicationStatus())
}

// HandleVote decides one promotion-vote request by the grant rules of
// cluster.Member.Grant, on this node's state under the lock. What is the
// node's own stays here: a draining node refuses, a grant that changes the
// vote record is persisted before it leaves the node, and a node with no
// durable store to persist it in never grants.
func (s *Server) HandleVote(req cluster.VoteRequest) cluster.VoteResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	me := s.repl.Member
	next, reason := me.Grant(req)
	switch {
	case s.closed:
		reason = "voter is draining"
	case reason != "":
	case s.wal == nil:
		// A memory-only vote record is forgotten by a crash-restart, which
		// could then endorse a rival for the same epoch — the vote-once
		// guarantee only holds when the vote outlives the process.
		reason = "no durable vote store"
	case next != me:
		if err := s.wal.SaveVote(wal.Vote{Epoch: next.VotedEpoch, Candidate: next.VotedFor}); err != nil {
			// A vote that cannot be made durable must not be cast: a
			// crash could forget it and endorse a rival next boot.
			s.st.Stats.RecordLogAppendFailure()
			reason = "vote persistence failed"
			break
		}
		s.repl.Member = next
	}
	return cluster.VoteResponse{Granted: reason == "", Voter: me.ID, Epoch: me.Epoch, Cursor: me.Cursor, Reason: reason}
}

// handleVote serves POST /v1/replication/vote. A denied vote is still a
// 200 — denial is a protocol answer, not a transport failure.
func (s *Server) handleVote(w http.ResponseWriter, r *http.Request) {
	var req cluster.VoteRequest
	if err := callplane.DecodeJSON(r.Body, "vote request", &req); err != nil {
		callplane.WriteError(w, http.StatusBadRequest, err)
		return
	}
	callplane.WriteJSON(w, http.StatusOK, s.HandleVote(req))
}

// handleReplPull serves GET /v1/replication/pull?seg=&off=&max=&wait_ms=:
// the records past (seg, off). A pull that offers to upgrade to
// cluster.ReplProtocol, at a cursor this WAL still holds, gets the stream: the
// connection is taken over and serveStream ships batches down it as they
// are appended. Every other pull — an older follower's, or one through a
// ResponseWriter that cannot be taken over — gets one JSON batch,
// long-polling up to wait_ms when the caller is already at the frontier. A
// position compacted away is re-seeded on the stream (serveStream) and
// answered 410 Gone anywhere else.
func (s *Server) handleReplPull(w http.ResponseWriter, r *http.Request) {
	if s.wal == nil {
		callplane.WriteError(w, http.StatusConflict, errors.New("server: replication requires a WAL"))
		return
	}
	q := r.URL.Query()
	var v [4]uint64
	for i, name := range [...]string{"seg", "off", "max", "wait_ms"} {
		var err error
		if v[i], err = queryUint(q.Get(name)); err != nil {
			callplane.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", name, err))
			return
		}
	}
	seg, off, maxRecords, waitMs := v[0], v[1], v[2], v[3]
	if maxRecords == 0 || maxRecords > cluster.MaxShippedRecords {
		maxRecords = pullMaxRecords
	}
	if waitMs > 60_000 {
		waitMs = 60_000
	}
	pos := wal.Pos{Seg: seg, Off: int64(off)}
	// The id comes from whoever can reach this port and ends up as a row of
	// the ack table and a label on the metrics page: bound what it can be.
	id := q.Get("id")
	if len(id) > maxFollowerIDLen || !utf8.ValidString(id) || strings.ContainsFunc(id, unicode.IsControl) {
		callplane.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad id: want at most %d bytes of UTF-8 without control characters", maxFollowerIDLen))
		return
	}
	s.recordAck(id, pos)
	// A zero cursor asks for the very beginning of history, not for
	// whatever is left of it: pin it to segment 1 so a compacted prefix
	// re-seeds the follower (or answers 410 Gone) instead of silently
	// serving a truncated stream the follower would diverge on.
	if pos.IsZero() {
		pos = wal.Pos{Seg: 1}
	}
	rd := s.wal.NewReader()
	defer rd.Close()
	if callplane.WantsUpgrade(r, cluster.ReplProtocol) {
		// The first batch is read before the connection is taken over: a
		// compacted cursor gets the stream, which re-seeds it, and any other
		// cursor this WAL cannot serve gets the JSON path's answer.
		b, err := s.shipFrom(rd, pos, int(maxRecords))
		gone := errors.Is(err, wal.ErrCompacted)
		if err == nil || gone {
			if st, ok := s.conns.Upgrade(w, r, cluster.ReplProtocol, streamIdle); ok {
				s.serveStream(st, rd, b, gone, id, int(maxRecords))
				return
			}
		}
	}
	if waitMs > 0 {
		// A closing server must not strand a poller for the rest of its
		// long-poll window: wake on the request's cancellation OR the
		// server's stop signal. The quit channel bounds the goroutine to
		// this handler's lifetime.
		quit := make(chan struct{})
		defer close(quit)
		wake := make(chan struct{})
		go func() {
			defer close(wake)
			select {
			case <-r.Context().Done():
			case <-s.stop:
			case <-quit:
			}
		}()
		s.wal.Wait(wake, pos, time.Duration(waitMs)*time.Millisecond)
	}
	b, err := s.shipFrom(rd, pos, int(maxRecords))
	switch {
	case errors.Is(err, wal.ErrCompacted):
		callplane.WriteError(w, http.StatusGone, err)
		return
	case err != nil:
		callplane.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	callplane.WriteJSON(w, http.StatusOK, b)
}

// recordAck takes a presented cursor as follower id's durability ack: the
// follower only advances it after the covered records are applied and
// appended to its own WAL, so everything before pos is replicated on that
// follower. A zero cursor has nothing to acknowledge yet. A cursor past the
// local frontier cannot be acknowledging local history — it is a buggy or
// wrong-lineage caller, and recording it would forward-run the ack table
// and falsely satisfy sync-ack quorum waits — so only positions the WAL has
// actually written count.
func (s *Server) recordAck(id string, pos wal.Pos) {
	if id != "" && !pos.IsZero() && !s.wal.End().Less(pos) {
		s.acks.Record(id, pos)
	}
}

// shipFrom reads the batch a pull at pos is answered with through rd; its
// Events alias rd's buffer until rd's next read.
func (s *Server) shipFrom(rd *wal.Reader, pos wal.Pos, maxRecords int) (cluster.ShippedBatch, error) {
	// The payloads ship as they sit in the WAL: the follower appends the
	// same bytes, and only it ever decodes them.
	events, start, next, err := rd.Read(pos, maxRecords, pullMaxBytes)
	if err != nil {
		return cluster.ShippedBatch{}, err
	}
	end := s.wal.End()
	lag, err := s.wal.SizeBetween(next, end)
	if err != nil {
		lag = 0
	}
	return cluster.ShippedBatch{
		Epoch: s.Epoch(), From: start, Next: next, End: end,
		LagBytes: lag, Events: events,
	}, nil
}

// appendReplReseed appends a re-seed: the gone frame, then snap's
// checkpoint frames, which the follower installs before the batches from
// the position snap covers.
func appendReplReseed(dst []byte, snap *Snapshot) ([]byte, error) {
	return snap.appendFrames(cluster.AppendReplGone(dst))
}

// serveStream runs one replication stream on a taken-over connection: it
// answers 101 with the first batch, then writes a batch frame whenever the
// WAL grows past what it shipped (an empty one after streamHeartbeat with
// nothing new), while a second goroutine reads the follower's cursor
// frames into the ack table. A write that takes streamIdle — a follower
// that stopped reading — ends it, as do a broken connection, a closed WAL,
// and the server's Close. A cursor compacted away, at the start or
// mid-stream, gets the gone frame and a fresh checkpoint (appendReplReseed),
// and the stream goes on from the position the checkpoint covers. Every
// batch is read through rd, which keeps the segment open and its buffer.
func (s *Server) serveStream(st *callplane.Stream, rd *wal.Reader, b cluster.ShippedBatch, gone bool, id string, maxRecords int) {
	defer st.End()
	st.Go(func() {
		defer st.HangUp()
		var ack [cluster.AckBytes]byte
		for {
			if _, err := io.ReadFull(st, ack[:]); err != nil {
				return
			}
			p, err := cluster.DecodeReplAck(ack[:])
			if err != nil {
				return
			}
			s.recordAck(id, p)
		}
	})

	var buf []byte
	for {
		var err error
		if gone {
			snap := s.Snapshot()
			buf, err = appendReplReseed(buf[:0], snap)
			b = cluster.ShippedBatch{Next: snap.WALPos()}
		} else {
			buf = cluster.AppendReplBatch(buf[:0], &b)
		}
		if err != nil || st.Write(nil, buf) != nil {
			return
		}
		if !gone {
			rd.Wait(st.Done(), b.Next, streamHeartbeat)
		}
		select {
		case <-st.Done():
			return
		default:
		}
		if s.wal.Closed() {
			return
		}
		if b, err = s.shipFrom(rd, b.Next, maxRecords); err != nil && !errors.Is(err, wal.ErrCompacted) {
			return
		}
		gone = err != nil
	}
}

func queryUint(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	return strconv.ParseUint(v, 10, 64)
}

// ReadWALDir decodes the events of the WAL in dir from `from` on without
// opening it for append (wal.ReadDir: nothing is repaired), handing each to
// fn in log order, and returns the position after the last one.
func ReadWALDir(dir string, from wal.Pos, fn func(trace.Event) error) (wal.Pos, error) {
	return wal.ReadDir(dir, from, func(payload []byte, next wal.Pos) error {
		var ev trace.Event
		if err := trace.DecodeRecord(payload, &ev); err != nil {
			return fmt.Errorf("server: WAL record before %v: %w", next, err)
		}
		return fn(ev)
	})
}

// ReadWALEvents decodes every decision event of l from `from` to its end —
// the boot-recovery read — and returns the position after the last one. A
// position past the end is an error: a checkpoint that covers appends the
// log lost must not be booted from, or the next appends would land behind
// it, where no later boot replays them.
func ReadWALEvents(l *wal.Log, from wal.Pos) ([]trace.Event, wal.Pos, error) {
	if end := l.End(); end.Less(from) {
		return nil, from, fmt.Errorf("server: WAL position %v is past the log's end %v", from, end)
	}
	var out []trace.Event
	end, err := ReadWALDir(l.Dir(), from, func(ev trace.Event) error {
		out = append(out, ev)
		return nil
	})
	if err != nil {
		return nil, end, err
	}
	return out, end, nil
}
