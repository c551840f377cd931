package server

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"gridbw/internal/hold"
	"gridbw/internal/metrics"
	"gridbw/internal/request"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// SnapshotVersion is bumped on incompatible snapshot schema changes. It is
// the only version restored: a snapshot is a checkpoint of the WAL, so a
// daemon upgraded past its snapshot's format recovers from the WAL instead.
const SnapshotVersion = 4

// Snapshot is the persisted control-plane state: a compacted WAL. The header
// holds what no event records; Events is a history that replays, through the
// WAL's own replayer, into the state the snapshot was taken of. Service time
// is continuous across restarts: a restored daemon resumes at NowS no matter
// how long it was down, so booked windows keep their meaning.
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

// WriteSnapshot serializes the current state as indented JSON.
func (s *Server) WriteSnapshot(w io.Writer) error {
	return s.Snapshot().Write(w)
}

// Write serializes the snapshot as indented JSON.
func (snap *Snapshot) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	return nil
}

// WriteFile writes the snapshot durably: temp file + fsync + rename +
// directory fsync, so a crash at any instant leaves either the old file
// or the new one — complete and durable — never a torn or vanishing one.
func (snap *Snapshot) WriteFile(path string) error {
	return snap.WriteFileFS(wal.OSFS{}, path)
}

// WriteFileFS is WriteFile through an injectable filesystem, so fault
// harnesses can tear the write at any step. On any failure the temp file
// is removed and the previous snapshot (if any) is left untouched, so
// the boot ladder can never read a half-written *.snap.json ahead of the
// WAL; callers must treat an error as "snapshot not taken" and skip WAL
// compaction.
func (snap *Snapshot) WriteFileFS(fsys wal.FS, path string) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := snap.Write(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// The rename is only durable once the directory entry is.
	return fsys.SyncDir(filepath.Dir(path))
}

// WALPos reports the WAL position the snapshot covers (zero when the
// snapshot predates the WAL or none was configured).
func (snap *Snapshot) WALPos() wal.Pos {
	return wal.Pos{Seg: snap.WALSeg, Off: snap.WALOff}
}

// ReadSnapshot parses a snapshot of the current SnapshotVersion. Older
// formats are refused: the WAL is the recovery source for a daemon whose
// snapshot predates this build.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("server: decode snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return nil, unsupportedVersion(snap.Version)
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
