package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"gridbw/internal/hold"
	"gridbw/internal/metrics"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// SnapshotVersion is bumped on incompatible checkpoint changes. It is the
// only version restored: a checkpoint compacts the WAL, so a daemon upgraded
// past its checkpoint's format recovers from the WAL instead. Version 4 was
// a JSON file; 5 is the WAL-framed checkpoint.
const SnapshotVersion = 5

// CheckpointName is the checkpoint file in a WAL directory: the snapshot a
// boot installs before it replays the WAL past the position it records.
const CheckpointName = "checkpoint.wal"

// Snapshot is the persisted control-plane state: a compacted WAL. The header
// holds what no event records; Events is a history that replays, through the
// WAL's own replayer, into the state the snapshot was taken of. Service time
// is continuous across restarts: a restored daemon resumes at NowS no matter
// how long it was down, so booked windows keep their meaning.
//
// On disk and on the replication stream a snapshot is a checkpoint: WAL
// frames (wal.AppendFrame), the header first, declaring how many event
// frames follow, then one frame per event as the WAL records it.
type Snapshot struct {
	Version    int            `json:"version"`
	Policy     string         `json:"policy"`
	NowS       float64        `json:"now_s"`
	NextID     int            `json:"next_id"`
	IngressBps []float64      `json:"ingress_capacity_bps"`
	EgressBps  []float64      `json:"egress_capacity_bps"`
	Counters   metrics.Online `json:"counters"`
	// Epoch is the fencing epoch at snapshot time; restore resumes at
	// least here, so a deposed primary's batches stay fenced off.
	Epoch uint64 `json:"epoch,omitempty"`
	// WALSeg/WALOff record the WAL append position this snapshot covers:
	// boot restores the snapshot, then replays only the WAL suffix past
	// this position, and compaction may drop whole segments before it.
	WALSeg uint64 `json:"wal_seg,omitempty"`
	WALOff int64  `json:"wal_off,omitempty"`
	// Events come in an order that books every record feasibly. First the
	// records that book nothing any more, each booking and then releasing on
	// its own: every idempotency key in the cache's FIFO order, each on the
	// decision it answers with (a reject, or an accept without a route, which
	// books nothing), then finished reservations in finish order and
	// resolved holds in retirement order. Then the live reservations in ID
	// order and the live holds in key order. Every event is stamped NowS, and
	// the installer refuses any other stamp: a cancel gives its capacity back
	// at that instant.
	Events []trace.Event `json:"events"`
}

// Snapshot captures the current state. It works on a closed server, so a
// draining daemon can persist its final ledger.
func (s *Server) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	now := s.sim.Now()
	snap := &Snapshot{
		Version:  SnapshotVersion,
		Policy:   s.policyName,
		NowS:     float64(now),
		NextID:   int(s.nextID),
		Counters: s.stats,
		Epoch:    s.repl.epoch,
	}
	if s.wal != nil {
		// Appends happen under s.mu, so the frontier read here is exactly
		// the boundary between history this snapshot covers and the WAL
		// suffix boot must replay on top of it.
		end := s.wal.End()
		snap.WALSeg, snap.WALOff = end.Seg, end.Off
	}
	snap.IngressBps, snap.EgressBps = capacitiesBps(s.net)
	resv := func(kind string, r request.Request, g request.Grant, reason, key string) {
		snap.Events = append(snap.Events, resvEvent(now, kind, r, g, reason, key))
	}
	holds := func(e *hold.Entry, kinds ...string) {
		for _, kind := range kinds {
			snap.Events = append(snap.Events, holdEvent(now, kind, e))
		}
	}

	// Every settled key comes first, in the cache's FIFO order, as the
	// decision it answers with, booking nothing (an accept without a route):
	// replay files the keys in the order the donor evicts them.
	seen := make(map[string]bool)
	for _, key := range s.idemOrder {
		ie, ok := s.idem[key]
		if !ok || seen[key] || !isClosed(ie.done) || ie.err != nil {
			continue // evicted, listed already, still in flight, or failed
		}
		seen[key] = true
		d := ie.d
		unrouted := request.Request{ID: d.ID, Ingress: -1, Egress: -1}
		if d.Accepted {
			resv(trace.EventAccept, unrouted, request.Grant{Bandwidth: d.Rate, Sigma: d.Sigma, Tau: d.Tau}, "", key)
		} else {
			resv(trace.EventReject, unrouted, request.Grant{}, d.Reason, key)
		}
	}
	for _, id := range s.finished {
		e := s.resv[id]
		end := trace.EventExpire
		if e.state == StateCancelled {
			end = trace.EventCancel
		}
		resv(trace.EventAccept, e.req, e.grant, "", "")
		resv(end, e.req, e.grant, "", "")
	}
	// Each resolved hold is retired again by the messages that retired it.
	for _, e := range s.holds.Retired() {
		switch {
		case e.Booked:
			// A key filed again after its first record was evicted: live.
		case e.Side == "":
			holds(e, trace.EventHoldAbort) // an ABORT that beat its RESERVE
		case e.Reason != "":
			holds(e, trace.EventHoldReserve) // a refused RESERVE
		case e.State == hold.Confirmed:
			holds(e, trace.EventHoldReserve, trace.EventHoldConfirm, trace.EventHoldRelease)
		default:
			holds(e, trace.EventHoldReserve, trace.EventHoldAbort)
		}
	}
	for _, id := range s.liveIDs() {
		e := s.resv[id]
		resv(trace.EventAccept, e.req, e.grant, "", "")
	}
	for _, e := range s.holds.All() {
		if e.Booked && e.State == hold.Confirmed {
			holds(e, trace.EventHoldReserve, trace.EventHoldConfirm)
		} else if e.Booked {
			holds(e, trace.EventHoldReserve)
		}
	}
	return snap
}

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// capacitiesBps lists net's access-point capacities as a snapshot records
// them.
func capacitiesBps(net *topology.Network) (in, eg []float64) {
	for i := 0; i < net.NumIngress(); i++ {
		in = append(in, float64(net.Bin(topology.PointID(i))))
	}
	for e := 0; e < net.NumEgress(); e++ {
		eg = append(eg, float64(net.Bout(topology.PointID(e))))
	}
	return in, eg
}

// Write writes the snapshot as a checkpoint.
func (snap *Snapshot) Write(w io.Writer) error {
	blob, err := snap.appendFrames(nil)
	if err == nil {
		_, err = w.Write(blob)
	}
	if err != nil {
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	return nil
}

// checkpointHeader is a checkpoint's first frame: the snapshot without its
// events, and how many event frames follow. Any prefix of a frame sequence
// is valid frames, so without the count a short checkpoint would install as
// a smaller state.
type checkpointHeader struct {
	*Snapshot
	Events int `json:"events"`
}

// appendFrames appends the snapshot's checkpoint frames to dst.
// The header frame is JSON; each event frame is one trace record.
func (snap *Snapshot) appendFrames(dst []byte) ([]byte, error) {
	frame := func(blob []byte, err error) error {
		if err == nil && len(blob) > wal.MaxRecordBytes {
			err = fmt.Errorf("%w: %d bytes", wal.ErrTooLarge, len(blob))
		}
		dst = wal.AppendFrame(dst, blob)
		return err
	}
	if err := frame(json.Marshal(checkpointHeader{snap, len(snap.Events)})); err != nil {
		return dst, err
	}
	var rec []byte
	for i := range snap.Events {
		var err error
		rec, err = trace.AppendRecord(rec[:0], &snap.Events[i])
		if err = frame(rec, err); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// WriteFileFS writes the checkpoint durably through fsys (wal.WriteFile), so
// fault harnesses can tear the write at any step: a crash at any instant
// leaves the old checkpoint or the new one, never a torn one. On any
// failure the previous checkpoint (if any) is left untouched, so boot can
// never read a half-written one ahead of the WAL; callers must treat an
// error as "checkpoint not taken" and skip WAL compaction.
func (snap *Snapshot) WriteFileFS(fsys wal.FS, path string) error {
	blob, err := snap.appendFrames(nil)
	if err != nil {
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	return wal.WriteFile(fsys, path, blob)
}

// WriteCheckpoint captures the current state and writes it as the WAL
// directory's checkpoint, returning what it wrote.
func (s *Server) WriteCheckpoint() (*Snapshot, error) {
	s.checkpointing.Lock()
	defer s.checkpointing.Unlock()
	if s.wal == nil {
		return nil, errors.New("server: a checkpoint lives in the WAL directory, and there is no WAL")
	}
	snap := s.Snapshot()
	return snap, snap.WriteFileFS(wal.OSFS{}, filepath.Join(s.wal.Dir(), CheckpointName))
}

// WALPos reports the WAL position the snapshot covers (zero when the
// snapshot predates the WAL or none was configured).
func (snap *Snapshot) WALPos() wal.Pos {
	return wal.Pos{Seg: snap.WALSeg, Off: snap.WALOff}
}

// ReadSnapshot reads a checkpoint of the current SnapshotVersion: exactly
// the event frames its header declares, and nothing after them. Older
// formats are refused: the WAL is the recovery source for a daemon whose
// checkpoint predates this build.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	fr := wal.NewFrameReader(bufio.NewReader(r), 0)
	snap, err := readCheckpoint(fr)
	if err != nil {
		return nil, err
	}
	if _, err := fr.Next(); err != io.EOF {
		return nil, fmt.Errorf("server: checkpoint: more than the %d events its header declares (%v)", len(snap.Events), err)
	}
	return snap, nil
}

// readCheckpoint reads one checkpoint's frames from fr — the header, then
// exactly the events it declares — and no byte past them: on the
// replication stream, batches follow.
func readCheckpoint(fr *wal.FrameReader) (*Snapshot, error) {
	var snap Snapshot
	h := checkpointHeader{Snapshot: &snap}
	p, err := fr.Next()
	if err == nil {
		err = json.Unmarshal(p, &h)
	}
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint header: %w", noEOF(err))
	}
	if snap.Version != SnapshotVersion {
		return nil, unsupportedVersion(snap.Version)
	}
	if h.Events < 0 {
		return nil, fmt.Errorf("server: checkpoint header declares %d events", h.Events)
	}
	snap.Events = make([]trace.Event, 0, min(h.Events, 1024))
	for i := 0; i < h.Events; i++ {
		var ev trace.Event
		p, err := fr.Next()
		if err == nil {
			err = trace.DecodeRecord(p, &ev)
		}
		if err != nil {
			return nil, fmt.Errorf("server: checkpoint: event %d of %d: %w", i, h.Events, noEOF(err))
		}
		snap.Events = append(snap.Events, ev)
	}
	return &snap, nil
}

func unsupportedVersion(v int) error {
	return fmt.Errorf("server: unsupported snapshot version %d (only version %d is restored; recover older state from the WAL)",
		v, SnapshotVersion)
}

// NewFromSnapshot restores a server from snap. Platform capacities and
// policy come from the snapshot; cfg supplies the runtime wiring (Clock,
// Decisions, FinishedRetention — its Ingress/Egress/Policy fields must be
// empty). The snapshot's events replay through the ledger, so a tampered or
// inconsistent snapshot fails restore instead of admitting an infeasible
// state.
func NewFromSnapshot(snap *Snapshot, cfg Config) (*Server, error) {
	if len(cfg.Ingress) != 0 || len(cfg.Egress) != 0 || cfg.Policy != "" {
		return nil, fmt.Errorf("server: restore takes platform and policy from the snapshot")
	}
	tcfg := topology.Config{}
	for _, c := range snap.IngressBps {
		tcfg.Ingress = append(tcfg.Ingress, units.Bandwidth(c))
	}
	for _, c := range snap.EgressBps {
		tcfg.Egress = append(tcfg.Egress, units.Bandwidth(c))
	}
	net, err := topology.New(tcfg)
	if err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	s, err := newServer(cfg, net, snap.Policy)
	if err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	st, err := s.replaySnapshot(snap)
	if err != nil {
		return nil, err
	}
	if err := s.initRepl(cfg, snap.Epoch); err != nil {
		return nil, err
	}
	s.adoptLocked(snap, st)
	s.appendEventLocked(trace.Event{
		At: snap.NowS, Kind: trace.EventRestore, Request: -1,
		Reason: fmt.Sprintf("%d live reservations", len(s.liveIDs())),
	})
	go s.loop()
	return s, nil
}

// replaySnapshot is the one snapshot installer's fallible half. It replays
// snap's events through applyEventLocked — the WAL's replayer, with every
// check it runs on a record: request.Validate, known kinds and sides, and
// equation (1) on the fresh ledger — onto a scratch follower of s's platform
// and policy, which arms no timers and is the one replayer that takes an
// accept without a route. It adds what only a snapshot can get wrong: the
// version, an event ID not below next_id, an event not stamped now_s, a
// non-finite quantity, a point whose profile forgot past now_s (a give-back
// at a τ still ahead), and a rebuilt state that fails the invariant audit.
// Nothing of s is touched, so a snapshot that fails leaves nothing
// half-installed; adoptLocked is the infallible half.
func (s *Server) replaySnapshot(snap *Snapshot) (*state, error) {
	if snap.Version != SnapshotVersion {
		return nil, unsupportedVersion(snap.Version)
	}
	if !(snap.NowS >= 0) || snap.NextID < 0 {
		return nil, fmt.Errorf("server: restore: negative clock or ID counter")
	}
	sc, err := newServer(Config{Clock: s.clock, FinishedRetention: s.retention}, s.net, s.policyName)
	if err != nil {
		return nil, err
	}
	// Entries come from s's pool: their expiry callbacks fire on s once the
	// state is adopted.
	sc.state = *newState(s.net, s.retention, s.entries)
	sc.repl.following, sc.installing = true, true
	for i, ev := range snap.Events {
		var err error
		switch {
		case ev.Request >= snap.NextID || ev.Kind == trace.EventAccept && ev.Request < 0:
			err = fmt.Errorf("request %d not in [0, next_id %d)", ev.Request, snap.NextID)
		case !finite(ev.At, ev.RateBps, ev.SigmaS, ev.TauS, ev.VolumeB, ev.MaxRateBps, ev.ExpireS):
			err = fmt.Errorf("non-finite quantity")
		case ev.At != snap.NowS:
			err = fmt.Errorf("stamped %g, not now_s %g", ev.At, snap.NowS)
		default:
			err = sc.applyEventLocked(ev, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("server: restore: event %d (%s): %w", i, ev.Kind, err)
		}
	}
	for dir, n := range []int{sc.net.NumIngress(), sc.net.NumEgress()} {
		for p := range n {
			d := topology.Direction(dir)
			if floor := sc.ledger.Floor(d, topology.PointID(p)); floor > units.Time(snap.NowS) {
				return nil, fmt.Errorf("server: restore: %s point %d gave capacity back at %g, past now_s %g",
					d, p, float64(floor), snap.NowS)
			}
		}
	}
	if err := sc.verify(); err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	// The counters and the ID allocator are the snapshot's own, not a count
	// of the events it replays.
	sc.stats, sc.nextID = snap.Counters, request.ID(snap.NextID)
	return &sc.state, nil
}

// adoptLocked is the installer's infallible half: st replaces the ledger,
// the registry, the hold table and the idempotency cache wholesale — so
// nothing of the state it displaces stays booked against a ledger that is
// gone — and the clock anchor resumes from snap. Expiry, TTL and release
// timers are armed unless following: a follower's are retired by the
// primary's shipped events and armed by Promote.
func (s *Server) adoptLocked(snap *Snapshot, st *state) {
	// The ID allocator never moves back, and append failures and the latency
	// histogram describe this process, not the state it adopts.
	next, failures, latency := s.nextID, s.stats.LogAppendFailures, s.stats.AdmitLatency
	s.state = *st
	s.nextID = max(s.nextID, next)
	s.stats.LogAppendFailures += failures
	s.stats.AdmitLatency = latency
	s.reanchorLocked(snap.NowS)
	if !s.repl.following {
		s.armTimersLocked()
	}
}

// Reseed replaces a follower's entire control-plane state with snap — the
// recovery from a compacted-away pull cursor, whose checkpoint arrives on
// the replication stream right after the gone frame. It is the snapshot
// installer NewFromSnapshot uses, with persistence between its two halves:
// the snapshot's events are replayed through a fresh sharded ledger
// (re-checking equation (1)), then the pull cursor jumps to the WAL
// position the snapshot covers and the fencing epoch is adopted — a
// snapshot from an epoch older than the follower's own is refused with
// FencedError, so a deposed primary cannot re-seed a follower of the new
// lineage backwards.
//
// Persistence happens before the in-memory swap. The local WAL moves to a
// fresh segment, the snapshot — recording that segment's start, so a boot
// replays exactly the shipped records appended after it — becomes the WAL
// directory's checkpoint, then come the epoch and the cursor, and every
// older segment is compacted away: the local log no longer starts at its
// head, so no boot can mistake it for all of history. A crash at any
// instant leaves a bootable state; a persistence failure aborts the
// re-seed with the follower unchanged.
func (s *Server) Reseed(snap *Snapshot) error {
	s.checkpointing.Lock()
	defer s.checkpointing.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.followingLocked(); err != nil {
		return err
	}
	if snap.Epoch < s.repl.epoch {
		return &FencedError{Batch: snap.Epoch, Current: s.repl.epoch}
	}
	if err := s.checkPlatformLocked(snap); err != nil {
		return err
	}

	// Phase 1 — replay and validate everything fallibly, touching no
	// shared state.
	st, err := s.replaySnapshot(snap)
	if err != nil {
		return fmt.Errorf("server: reseed: %w", err)
	}

	// Phase 2 — persist. The checkpoint records the follower's own WAL
	// position; the cursor records the primary-side position pulling
	// resumes from.
	if s.wal != nil {
		localStart, err := s.wal.Rotate()
		if err != nil {
			return fmt.Errorf("server: reseed: %w", err)
		}
		local := *snap
		local.WALSeg, local.WALOff = localStart.Seg, localStart.Off
		if err := local.WriteFileFS(wal.OSFS{}, filepath.Join(s.wal.Dir(), CheckpointName)); err != nil {
			return fmt.Errorf("server: reseed: persist checkpoint: %w", err)
		}
		if snap.Epoch > s.repl.epoch {
			if err := s.wal.SaveEpoch(snap.Epoch); err != nil {
				s.stats.RecordLogAppendFailure()
			}
		}
		if err := s.wal.SaveCursor(snap.WALPos(), localStart); err != nil {
			s.stats.RecordLogAppendFailure()
		}
		if _, err := s.wal.CompactBefore(localStart); err != nil {
			s.stats.RecordLogAppendFailure()
		}
	}

	// Phase 3 — swap, infallibly. A follower arms no timers, so the state
	// displaced here leaves none behind. The re-seed count is this
	// follower's own history, not the donor's.
	reseeds := s.stats.Reseeds
	s.adoptLocked(snap, st)
	s.stats.Reseeds = reseeds
	s.stats.RecordReseed()
	if snap.Epoch > s.repl.epoch {
		s.repl.epoch = snap.Epoch
	}
	s.repl.cursor = snap.WALPos()
	s.repl.lagBytes = 0
	s.repl.lastPull = s.clock()
	s.appendEventLocked(trace.Event{
		At: snap.NowS, Kind: trace.EventRestore, Request: -1,
		Reason: fmt.Sprintf("reseed: epoch %d, %d live reservations, cursor %v",
			s.repl.epoch, len(s.liveIDs()), s.repl.cursor),
	})
	return nil
}

// checkPlatformLocked verifies snap describes the same access points this
// server was built for — re-seeding across platforms would replay grants
// against capacities they were never admitted under.
func (s *Server) checkPlatformLocked(snap *Snapshot) error {
	if in, eg := capacitiesBps(s.net); !slices.Equal(snap.IngressBps, in) || !slices.Equal(snap.EgressBps, eg) {
		return fmt.Errorf("server: reseed: snapshot platform %v -> %v differs from server's %v -> %v",
			snap.IngressBps, snap.EgressBps, in, eg)
	}
	if snap.Policy != "" && snap.Policy != s.policyName {
		return fmt.Errorf("server: reseed: snapshot policy %q differs from server's %q", snap.Policy, s.policyName)
	}
	return nil
}
