package server

// Snapshot re-seeding: the recovery path for a follower whose pull cursor
// was compacted away on the primary (410 Gone). Before this existed, 410
// meant a manual resync — stop the standby, copy state by hand, restart.
// Now the pull loop downloads GET /v1/replication/snapshot (a fresh,
// consistent snapshot carrying the fencing epoch and the exact WAL
// position it covers), installs it through the same snapshot installer
// boot uses (equation (1) re-checked for every reservation and hold),
// persists the new cursor, and resumes pulling from the snapshot's frontier.
//
// Crash safety mirrors the boot ladder: the follower's own WAL no longer
// covers its state after a re-seed (the compacted gap is missing from
// it), so Reseed first persists the downloaded snapshot — rewritten to
// record the follower's *local* WAL frontier — as ReseedSnapshotName in
// the WAL directory, then the cursor, and only then mutates memory. A
// reboot restores that snapshot plus the local WAL suffix past it; a
// crash between persist and the in-memory swap just re-seeds from disk.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"

	"gridbw/internal/trace"
)

// ReseedSnapshotName is the file a re-seeded follower writes into its WAL
// directory; the boot ladder restores it (plus the local WAL suffix past
// the position it records) in preference to a full local-WAL replay,
// which would misread the compacted gap.
const ReseedSnapshotName = "reseed.snap.json"

// errPullGone marks a pull answered 410 Gone: the cursor's history was
// compacted away and only a snapshot re-seed can recover.
var errPullGone = errors.New("server: pull position compacted away")

// handleReplSnapshot serves GET /v1/replication/snapshot: a fresh,
// consistent snapshot of the whole control plane, carrying the fencing
// epoch and the exact WAL position it covers — the re-seed source for a
// follower whose pull cursor was compacted away.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Gridbw-Epoch", strconv.FormatUint(snap.Epoch, 10))
	w.WriteHeader(http.StatusOK)
	_ = snap.Write(w)
}

// Reseed replaces a follower's entire control-plane state with snap —
// the recovery from a compacted-away pull cursor. It is the snapshot
// installer NewFromSnapshot uses, with persistence between its two halves:
// the snapshot's events are replayed through a fresh sharded ledger
// (re-checking equation (1)), then the pull cursor jumps to the WAL
// position the snapshot covers and the fencing epoch is adopted — a
// snapshot from an epoch older than the follower's own is refused with
// FencedError, so a deposed primary
// cannot re-seed a follower of the new lineage backwards.
//
// Persistence happens before the in-memory swap: the snapshot (rewritten
// to record the follower's local WAL frontier) lands in the WAL directory
// as ReseedSnapshotName, then the epoch and cursor metadata. A crash at
// any instant leaves a bootable state; a persistence failure aborts the
// re-seed with the follower unchanged.
func (s *Server) Reseed(snap *Snapshot) error {
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

	// Phase 2 — persist. The local boot snapshot records the follower's
	// own WAL frontier, so a reboot replays exactly the shipped records
	// appended after this point; the cursor records the primary-side
	// position pulling resumes from.
	if s.wal != nil {
		localEnd := s.wal.End()
		local := *snap
		local.WALSeg, local.WALOff = localEnd.Seg, localEnd.Off
		path := filepath.Join(s.wal.Dir(), ReseedSnapshotName)
		if err := local.WriteFile(path); err != nil {
			return fmt.Errorf("server: reseed: persist snapshot: %w", err)
		}
		if snap.Epoch > s.repl.epoch {
			if err := s.wal.SaveEpoch(snap.Epoch); err != nil {
				s.stats.RecordLogAppendFailure()
			}
		}
		if err := s.wal.SaveCursor(snap.WALPos(), localEnd); err != nil {
			s.stats.RecordLogAppendFailure()
		}
		// The pre-reseed local segments are covered by the persisted
		// snapshot; dropping whole old segments bounds the disk without
		// touching the suffix a reboot still replays.
		if _, err := s.wal.CompactBefore(localEnd); err != nil {
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

// reseedFromSource downloads the primary's snapshot and re-seeds this
// follower from it — the pull loop's answer to 410 Gone, under the loop's
// context.
func (s *Server) reseedFromSource(ctx context.Context, hc *http.Client, source string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, source+"/v1/replication/snapshot", nil)
	if err != nil {
		return fmt.Errorf("server: reseed: %w", err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("server: reseed: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: reseed: snapshot endpoint answered HTTP %d", resp.StatusCode)
	}
	snap, err := ReadSnapshot(resp.Body)
	if err != nil {
		return fmt.Errorf("server: reseed: %w", err)
	}
	return s.Reseed(snap)
}
