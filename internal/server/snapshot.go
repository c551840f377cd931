package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"gridbw/internal/metrics"
	"gridbw/internal/request"
	"gridbw/internal/state"
	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
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
	// Events are state.Machine.Events: an order that books every record
	// feasibly. Every event is stamped NowS, and the installer refuses any
	// other stamp: a cancel gives its capacity back at that instant.
	Events []trace.Event `json:"events"`
}

// Snapshot captures the current state. It works on a closed server, so a
// draining daemon can persist its final ledger.
func (s *Server) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.advanceLocked()
	// Appends happen under s.mu, so the frontier read here is exactly the
	// boundary between history this snapshot covers and the WAL suffix boot
	// must replay on top of it.
	var walEnd wal.Pos
	if s.wal != nil {
		walEnd = s.wal.End()
	}
	in, eg := capacitiesBps(s.net)
	return &Snapshot{
		Version: SnapshotVersion, Policy: s.policyName, NowS: float64(now),
		NextID: int(s.st.NextID), Counters: s.st.Stats, Epoch: s.repl.Epoch,
		WALSeg: walEnd.Seg, WALOff: walEnd.Off,
		IngressBps: in, EgressBps: eg,
		Events: s.st.Events(now),
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
		return nil, fmt.Errorf("server: checkpoint header: %w", wire.NoEOF(err))
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
			return nil, fmt.Errorf("server: checkpoint: event %d of %d: %w", i, h.Events, wire.NoEOF(err))
		}
		snap.Events = append(snap.Events, ev)
	}
	return &snap, nil
}

func unsupportedVersion(v int) error {
	return fmt.Errorf("server: unsupported snapshot version %d (only version %d is restored; recover older state from the WAL)",
		v, SnapshotVersion)
}

// replaySnapshot is the snapshot installer's fallible half: snap's events
// onto a bare state machine of s's platform and policy. Nothing of s is
// touched, so a snapshot that fails leaves nothing half-installed.
func (s *Server) replaySnapshot(snap *Snapshot) (*state.Machine, error) {
	if snap.Version != SnapshotVersion {
		return nil, unsupportedVersion(snap.Version)
	}
	if !(snap.NowS >= 0) || snap.NextID < 0 {
		return nil, fmt.Errorf("server: restore: negative clock or ID counter")
	}
	m := state.New(s.net, s.pol, s.retention)
	if err := m.Install(snap.Events, units.Time(snap.NowS), request.ID(snap.NextID), snap.Counters); err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	return m, nil
}

// adoptLocked is the installer's infallible half: m replaces the state
// machine wholesale, the clock anchor resumes from snap and m's timers are
// armed (none on a follower).
func (s *Server) adoptLocked(snap *Snapshot, m *state.Machine) {
	// The ID allocator never moves back, and append failures and the latency
	// histogram describe this process, not the state it adopts.
	old := s.st
	m.NextID = max(m.NextID, old.NextID)
	m.Stats.LogAppendFailures += old.Stats.LogAppendFailures
	m.Stats.AdmitLatency = old.Stats.AdmitLatency
	s.bindLocked(m)
	s.reanchorLocked(snap.NowS)
	m.ArmTimers()
}

// Reseed replaces a follower's entire control-plane state with snap — the
// recovery from a compacted-away pull cursor, whose checkpoint arrives on
// the replication stream right after the gone frame. It is the snapshot
// installer a boot uses, with persistence between its two halves:
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
	if snap.Epoch < s.repl.Epoch {
		return &FencedError{Batch: snap.Epoch, Current: s.repl.Epoch}
	}
	if err := s.checkPlatformLocked(snap); err != nil {
		return err
	}

	// Phase 1 — replay and validate everything fallibly, touching no
	// shared state.
	m, err := s.replaySnapshot(snap)
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
		if snap.Epoch > s.repl.Epoch {
			if err := s.wal.SaveEpoch(snap.Epoch); err != nil {
				s.st.Stats.RecordLogAppendFailure()
			}
		}
		if err := s.wal.SaveCursor(snap.WALPos(), localStart); err != nil {
			s.st.Stats.RecordLogAppendFailure()
		}
		if _, err := s.wal.CompactBefore(localStart); err != nil {
			s.st.Stats.RecordLogAppendFailure()
		}
	}

	// Phase 3 — swap, infallibly. A follower arms no timers, so the state
	// displaced here leaves none behind. The re-seed count is this
	// follower's own history, not the donor's.
	reseeds := s.st.Stats.Reseeds
	s.adoptLocked(snap, m)
	s.st.Stats.Reseeds = reseeds
	s.st.Stats.RecordReseed()
	if snap.Epoch > s.repl.Epoch {
		s.repl.Epoch = snap.Epoch
	}
	s.repl.Cursor = snap.WALPos()
	s.repl.lagBytes = 0
	s.repl.lastPull = s.clock()
	s.appendEventLocked(trace.Event{
		At: snap.NowS, Kind: trace.EventRestore, Request: -1,
		Reason: fmt.Sprintf("reseed: epoch %d, %d live reservations, cursor %v",
			s.repl.Epoch, len(s.st.Live(s.sim.Now())), s.repl.Cursor),
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
