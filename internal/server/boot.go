package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// legacyReseedName is the JSON snapshot a follower of an older version
// wrote into its WAL directory when it re-seeded. Its WAL starts at that
// re-seed, and this version reads no JSON snapshot, so no boot can rebuild
// its state.
const legacyReseedName = "reseed.snap.json"

// New validates cfg and starts a server; callers must Close it to stop the
// expiry loop. Without cfg.WAL the service clock starts at 0. With it, New
// boots from the WAL directory, primary and follower alike, and the only
// choice is the base: the directory's checkpoint, whose platform and policy
// win over cfg's, with the WAL past the position it covers; else a fresh
// server on cfg's platform with the whole WAL, which is a plain fresh server
// when the WAL holds no history. Replayed records are not appended again.
// The whole WAL must reach back to its first segment, so a checkpoint that
// is unusable where compaction (or a re-seed) dropped the WAL's head refuses
// the boot rather than rebuilding a part of the state. A follower resumes at
// the pull cursor the WAL recovered and pulls once StartFollowing is called.
// BootRoute reports the route the boot took.
func New(cfg Config) (*Server, error) {
	if cfg.WAL == nil {
		return boot(cfg, nil, "")
	}
	path := filepath.Join(cfg.WAL.Dir(), CheckpointName)
	var snap *Snapshot
	f, snapErr := os.Open(path)
	if snapErr == nil {
		snap, snapErr = ReadSnapshot(f)
		f.Close()
	} else if errors.Is(snapErr, os.ErrNotExist) {
		snapErr = nil
	}
	if snap != nil {
		s, err := boot(cfg, snap, path)
		if err == nil {
			return s, nil
		}
		snapErr = err
	}
	if snapErr != nil {
		// Refusing to start would keep the whole control plane down over
		// one bad file; the whole WAL, if it still reaches its head,
		// carries enough to rebuild.
		snapErr = fmt.Errorf("checkpoint %s unusable (%w)", path, snapErr)
		if cfg.WAL.Records() == 0 {
			// A fresh boot would silently discard what the checkpoint held.
			return nil, fmt.Errorf("%w and no WAL history to rebuild from", snapErr)
		}
	} else if _, err := os.Stat(filepath.Join(cfg.WAL.Dir(), legacyReseedName)); err == nil {
		return nil, fmt.Errorf("%s holds %s, the re-seed of an older version, which this version does not read: wipe the WAL directory and let the follower re-seed",
			cfg.WAL.Dir(), legacyReseedName)
	}
	s, err := boot(cfg, nil, "")
	if snapErr != nil {
		if err != nil {
			return nil, fmt.Errorf("%v and the whole WAL cannot rebuild the state: %w", snapErr, err)
		}
		s.route = fmt.Sprintf("%v; falling back to full WAL replay: %s", snapErr, s.route)
	}
	return s, err
}

// boot builds the server New starts from base, the checkpoint read from
// path (nil: a fresh server on cfg's platform), replays cfg.WAL past the
// position base covers and starts the expiry loop. A server that fails is
// dropped before anything of it runs.
func boot(cfg Config, base *Snapshot, path string) (*Server, error) {
	// No checkpoint means all of history: a compacted prefix must answer
	// ErrCompacted, not be skipped as a silent gap.
	from, how := wal.Pos{Seg: 1}, "fresh server"
	if base != nil {
		from, how = base.WALPos(), fmt.Sprintf("restored checkpoint %s (clock at %s)", path, units.Time(base.NowS))
	}
	replayErr := func(err error) error {
		return fmt.Errorf("replay WAL %s from %v: %w", cfg.WAL.Dir(), from, err)
	}
	// Read before the install, which logs a restore marker past from.
	var events []trace.Event
	if cfg.WAL != nil {
		var err error
		if events, _, err = ReadWALEvents(cfg.WAL, from); err != nil {
			return nil, replayErr(err)
		}
	}
	var s *Server
	var err error
	if base == nil {
		s, err = newServer(cfg, nil)
	} else {
		rt := cfg
		rt.Ingress, rt.Egress, rt.Policy = nil, nil, "" // the checkpoint carries the platform
		s, err = newFromSnapshot(base, rt)
	}
	if err != nil {
		return nil, err
	}
	if _, err := s.applyEvents(events); err != nil {
		return nil, replayErr(err)
	}
	if len(events) > 0 {
		how += fmt.Sprintf(", replayed %d WAL events from %v", len(events), from)
	}
	if s.repl.Following {
		// The cursor is the one WAL recovery accepted: after a crash it may
		// sit a batch (after a power loss, more) behind the local log.
		how = fmt.Sprintf("following %s at epoch %d from cursor %v: %s", cfg.Follow, s.repl.Epoch, s.repl.Cursor, how)
	}
	s.route = fmt.Sprintf("%s; %s, policy %s, %d live reservations", how, s.net, s.policyName, len(s.LiveReservations()))
	go s.loop()
	return s, nil
}

// BootRoute reports the route New's boot took: the base it installed, what
// it replayed of the WAL, and the state it reached.
func (s *Server) BootRoute() string { return s.route }

// newFromSnapshot builds an idle server from snap. Platform capacities and
// policy come from the snapshot; cfg supplies the runtime wiring (Clock,
// Decisions, FinishedRetention — its Ingress/Egress/Policy fields must be
// empty). The snapshot's events replay through the ledger, so a tampered or
// inconsistent snapshot fails restore instead of admitting an infeasible
// state.
func newFromSnapshot(snap *Snapshot, cfg Config) (*Server, error) {
	if len(cfg.Ingress) != 0 || len(cfg.Egress) != 0 || cfg.Policy != "" {
		return nil, fmt.Errorf("server: restore takes platform and policy from the snapshot")
	}
	s, err := newServer(cfg, snap)
	if err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	m, err := s.replaySnapshot(snap)
	if err != nil {
		return nil, err
	}
	s.adoptLocked(snap, m)
	s.appendEventLocked(trace.Event{
		At: snap.NowS, Kind: trace.EventRestore, Request: -1,
		Reason: fmt.Sprintf("%d live reservations", len(s.st.Live(s.sim.Now()))),
	})
	return s, nil
}

// applyEvents replays recovered events — the WAL suffix past a checkpoint,
// or the whole WAL onto a fresh server — for primaries and followers alike
// (state.Machine.Apply), and reports how many applied. They are not
// recorded again: the local WAL has them.
func (s *Server) applyEvents(events []trace.Event) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ev := range events {
		if err := s.applyEventLocked(ev, nil); err != nil {
			return i, err
		}
	}
	return len(events), nil
}
