package server

import (
	"encoding/json"
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

// SnapshotVersion is bumped on incompatible snapshot schema changes. It is
// the only version restored: a snapshot is a checkpoint of the WAL, so a
// daemon upgraded past its snapshot's format recovers from the WAL instead.
const SnapshotVersion = 3

// snapReservation is the wire form of one live reservation: the full
// request plus its grant, so restore can replay it through the ledger's
// own constraint checks.
type snapReservation struct {
	ID         int     `json:"id"`
	Ingress    int     `json:"ingress"`
	Egress     int     `json:"egress"`
	StartS     float64 `json:"start_s"`
	FinishS    float64 `json:"finish_s"`
	VolumeB    float64 `json:"volume_bytes"`
	MaxRateBps float64 `json:"max_rate_bps"`
	RateBps    float64 `json:"rate_bps"`
	SigmaS     float64 `json:"sigma_s"`
	TauS       float64 `json:"tau_s"`
}

// snapDecision is the wire form of one cached idempotency decision —
// enough to answer a retry without re-admitting, whatever state the
// original reservation has reached by now.
type snapDecision struct {
	ID       int     `json:"id"`
	Accepted bool    `json:"accepted"`
	State    string  `json:"state"`
	RateBps  float64 `json:"rate_bps,omitempty"`
	SigmaS   float64 `json:"sigma_s,omitempty"`
	TauS     float64 `json:"tau_s,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// snapHold is the wire form of one cross-shard hold. A live
// (capacity-booking) one re-books on restore; held ones re-arm their TTL
// rollback, confirmed ones their on-time release at tau. An aborted one —
// rolled back, refused, or an ABORT that beat its RESERVE — books nothing
// and is filed again as a tombstone, so a late RESERVE of its pair still
// books nothing after a restart or a re-seed; Reason is what it answers.
type snapHold struct {
	Key        string  `json:"key"`
	Side       string  `json:"side"`
	Point      int     `json:"point"`
	PeerPoint  int     `json:"peer_point"`
	ID         int     `json:"id"`
	RateBps    float64 `json:"rate_bps"`
	SigmaS     float64 `json:"sigma_s"`
	TauS       float64 `json:"tau_s"`
	VolumeB    float64 `json:"volume_bytes,omitempty"`
	MaxRateBps float64 `json:"max_rate_bps,omitempty"`
	ExpireS    float64 `json:"expire_s"`
	Confirmed  bool    `json:"confirmed,omitempty"`
	Reason     string  `json:"reason,omitempty"`
}

func holdRow(e *hold.Entry) snapHold {
	return snapHold{
		Key: e.Key, Side: e.Side, Point: int(e.Point), PeerPoint: e.Peer,
		ID:      int(e.ID),
		RateBps: float64(e.BW), SigmaS: float64(e.Sigma), TauS: float64(e.Tau),
		VolumeB: float64(e.Volume), MaxRateBps: float64(e.MaxRate),
		ExpireS: float64(e.ExpireAt), Confirmed: e.State == hold.Confirmed,
		Reason: e.Reason,
	}
}

// Snapshot is the persisted control-plane state. Service time is
// continuous across restarts: a restored daemon resumes at NowS no matter
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
	WALSeg uint64            `json:"wal_seg,omitempty"`
	WALOff int64             `json:"wal_off,omitempty"`
	Live   []snapReservation `json:"reservations"`
	// IdempotencyDecisions maps submission keys to their full cached
	// decisions — including rejections and terminal reservations — so a
	// client retrying with the same key after a daemon restart gets the
	// original answer instead of booking a duplicate transfer.
	IdempotencyDecisions map[string]snapDecision `json:"idempotency_decisions,omitempty"`
	// Holds are the cross-shard one-sided bookings alive at snapshot time,
	// in key order. AbortedHolds are the hold table's tombstones in the
	// order they were retired, so a restored table evicts them as the
	// donor's would; a separate list, so a reader that predates it skips
	// them instead of booking them.
	Holds        []snapHold `json:"holds,omitempty"`
	AbortedHolds []snapHold `json:"aborted_holds,omitempty"`
}

// Snapshot captures the current state. It works on a closed server, so a
// draining daemon can persist its final ledger.
func (s *Server) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	snap := &Snapshot{
		Version:  SnapshotVersion,
		Policy:   s.policyName,
		NowS:     float64(s.sim.Now()),
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
	for _, id := range s.liveIDs() {
		e := s.resv[id]
		snap.Live = append(snap.Live, snapReservation{
			ID:      int(e.req.ID),
			Ingress: int(e.req.Ingress), Egress: int(e.req.Egress),
			StartS: float64(e.req.Start), FinishS: float64(e.req.Finish),
			VolumeB: float64(e.req.Volume), MaxRateBps: float64(e.req.MaxRate),
			RateBps: float64(e.grant.Bandwidth),
			SigmaS:  float64(e.grant.Sigma), TauS: float64(e.grant.Tau),
		})
	}
	for key, ie := range s.idem {
		select {
		case <-ie.done:
		default:
			// Still in flight: the submission will settle after this
			// snapshot, so it has no decision to persist yet.
			continue
		}
		if ie.err != nil {
			continue
		}
		d := ie.d
		sd := snapDecision{
			ID: int(d.ID), Accepted: d.Accepted, State: string(d.State),
			RateBps: float64(d.Rate), SigmaS: float64(d.Sigma), TauS: float64(d.Tau),
			Reason: d.Reason,
		}
		if d.Accepted {
			// The cached decision froze the state at decision time;
			// persist where the reservation actually is now.
			if e, ok := s.resv[d.ID]; ok {
				sd.State = string(s.liveStateLocked(e))
			} else {
				// Evicted from the registry: terminal long ago.
				sd.State = string(StateExpired)
			}
		}
		if snap.IdempotencyDecisions == nil {
			snap.IdempotencyDecisions = make(map[string]snapDecision)
		}
		snap.IdempotencyDecisions[key] = sd
	}
	for _, e := range s.holds.All() {
		if e.Booked {
			snap.Holds = append(snap.Holds, holdRow(e))
		}
	}
	for _, e := range s.holds.Retired() {
		if e.State == hold.Aborted {
			snap.AbortedHolds = append(snap.AbortedHolds, holdRow(e))
		}
	}
	return snap
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
// empty). Every live reservation and hold is replayed through the ledger,
// so a tampered or inconsistent snapshot fails restore instead of admitting
// an infeasible state.
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
	st, idem, err := s.buildSnapState(snap)
	if err != nil {
		return nil, err
	}
	if err := s.initRepl(cfg, snap.Epoch); err != nil {
		return nil, err
	}
	s.adoptLocked(snap, st, idem)
	s.appendEventLocked(trace.Event{
		At: snap.NowS, Kind: trace.EventRestore, Request: -1,
		Reason: fmt.Sprintf("%d live reservations", len(st.resv)),
	})
	go s.loop()
	return s, nil
}

// idemRow is one validated idempotency decision of a snapshot.
type idemRow struct {
	key string
	e   *idemEntry
}

// buildSnapState is the one snapshot installer's fallible half. It turns
// each row of snap into the record a WAL event would have decoded to and
// runs the same booking and transitions replay runs (state.go), on a state
// built apart from the server's own, so that a snapshot which fails
// validation leaves nothing half-installed: the fresh ledger re-checks
// equation (1), so an infeasible or tampered snapshot is refused rather than
// over-committing a point. What only a snapshot has is checked here: its
// version, the next_id bound, and the idempotency decisions (returned in key
// order, so the FIFO eviction order is the same on every restore) against
// the registry just built. No shared state is touched and no timers are
// armed; adoptLocked does both.
func (s *Server) buildSnapState(snap *Snapshot) (*state, []idemRow, error) {
	if snap.Version != SnapshotVersion {
		return nil, nil, unsupportedVersion(snap.Version)
	}
	if snap.NowS < 0 || snap.NextID < 0 {
		return nil, nil, fmt.Errorf("server: restore: negative clock or ID counter")
	}
	st := newState(s.net, s.retention, s.entries)
	for _, sr := range snap.Live {
		id := request.ID(sr.ID)
		if sr.ID >= snap.NextID {
			return nil, nil, fmt.Errorf("server: restore: reservation %d not below next_id %d", sr.ID, snap.NextID)
		}
		r := request.Request{
			ID:      id,
			Ingress: topology.PointID(sr.Ingress), Egress: topology.PointID(sr.Egress),
			Start: units.Time(sr.StartS), Finish: units.Time(sr.FinishS),
			Volume: units.Volume(sr.VolumeB), MaxRate: units.Bandwidth(sr.MaxRateBps),
		}
		err := r.Validate()
		if err == nil {
			_, err = st.restore(r, request.Grant{
				Request:   id,
				Bandwidth: units.Bandwidth(sr.RateBps), Sigma: units.Time(sr.SigmaS), Tau: units.Time(sr.TauS),
			})
		}
		if err != nil {
			return nil, nil, fmt.Errorf("server: restore: %w", err)
		}
	}
	for i, sh := range slices.Concat(snap.Holds, snap.AbortedHolds) {
		if _, dup := st.holds.Get(sh.Key); dup {
			return nil, nil, fmt.Errorf("server: restore: duplicate hold %q", sh.Key)
		}
		h := hold.Entry{
			Key: sh.Key, Side: sh.Side, Point: topology.PointID(sh.Point), Peer: sh.PeerPoint,
			ID:    request.ID(sh.ID),
			BW:    units.Bandwidth(sh.RateBps),
			Sigma: units.Time(sh.SigmaS), Tau: units.Time(sh.TauS),
			Volume: units.Volume(sh.VolumeB), MaxRate: units.Bandwidth(sh.MaxRateBps),
			ExpireAt: units.Time(sh.ExpireS), Reason: sh.Reason,
		}
		decide := func() (hold.Entry, error) { return st.bookHold(h) }
		if i >= len(snap.Holds) {
			// A tombstone row books nothing: it is filed refused, reason and all.
			h.State = hold.Aborted
			decide = func() (hold.Entry, error) { return h, nil }
		}
		if _, err := st.holds.Step(hold.Msg{Kind: hold.Reserve, Key: sh.Key, Decide: decide}); err != nil {
			return nil, nil, fmt.Errorf("server: restore: %w", err)
		}
		if sh.Confirmed {
			st.holds.Step(hold.Msg{Kind: hold.Confirm, Key: sh.Key})
		}
	}
	// The counters and the ID allocator are the snapshot's own, not a count
	// of the rows it happens to carry.
	st.stats, st.nextID = snap.Counters, request.ID(snap.NextID)

	keys := make([]string, 0, len(snap.IdempotencyDecisions))
	for key := range snap.IdempotencyDecisions {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	idem := make([]idemRow, 0, len(keys))
	for _, key := range keys {
		sd := snap.IdempotencyDecisions[key]
		d := Decision{
			ID: request.ID(sd.ID), Accepted: sd.Accepted, State: State(sd.State),
			Rate: units.Bandwidth(sd.RateBps), Sigma: units.Time(sd.SigmaS), Tau: units.Time(sd.TauS),
			Reason: sd.Reason,
		}
		switch d.State {
		case StateBooked, StateActive, StateExpired, StateCancelled, StateRejected:
		default:
			return nil, nil, fmt.Errorf("server: restore: idempotency key %q has unknown state %q", key, sd.State)
		}
		if d.Accepted {
			if int(d.ID) >= snap.NextID || d.ID < 0 {
				return nil, nil, fmt.Errorf("server: restore: idempotency key %q for reservation %d not below next_id %d",
					key, sd.ID, snap.NextID)
			}
			if _, live := st.resv[d.ID]; !live && (d.State == StateBooked || d.State == StateActive) {
				return nil, nil, fmt.Errorf("server: restore: idempotency key %q claims live reservation %d absent from snapshot",
					key, sd.ID)
			}
		}
		e := &idemEntry{done: make(chan struct{}), d: d}
		close(e.done)
		idem = append(idem, idemRow{key, e})
	}
	return st, idem, nil
}

// adoptLocked is the installer's infallible half: st replaces the ledger,
// the registry, the idempotency cache and the hold table wholesale — so
// nothing of the state it displaces stays booked against a ledger that is
// gone — and the counters, ID allocator and clock anchor resume from snap.
// Expiry, TTL and release timers are armed unless following: a follower's
// are retired by the primary's shipped events and armed by Promote.
func (s *Server) adoptLocked(snap *Snapshot, st *state, idem []idemRow) {
	// The ID allocator never moves back, and append failures and the latency
	// histogram describe this process, not the state it adopts.
	next, failures, latency := s.nextID, s.stats.LogAppendFailures, s.stats.AdmitLatency
	s.state = *st
	s.nextID = max(s.nextID, next)
	s.stats.LogAppendFailures += failures
	s.stats.AdmitLatency = latency
	s.idem, s.idemOrder = make(map[string]*idemEntry, len(idem)), nil
	for _, row := range idem {
		s.rememberLocked(row.key, row.e)
	}
	s.reanchorLocked(snap.NowS)
	if !s.repl.following {
		s.armTimersLocked()
	}
}
