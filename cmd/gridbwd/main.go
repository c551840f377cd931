// Command gridbwd is the online admission-control daemon: the paper's
// bandwidth-sharing service behind an HTTP/JSON API.
//
// It serves the /v1 endpoints (requests, batch, status, metricsz,
// healthz, replication), expires grants against the wall clock, sheds
// submissions beyond its in-flight limit, and — with -wal — persists its
// control-plane state in one format: a segmented, CRC-framed write-ahead
// log of every admission decision, and beside the segments a checkpoint in
// the same frames (-snapshot-every) that lets compaction (-wal-compact)
// drop the segments it covers. server.New boots from that directory,
// primary or follower alike: the checkpoint plus the WAL past it, else the
// whole WAL, else fresh; the daemon logs the route it took ("boot: …").
// `gridbwctl tail -wal DIR` prints the logged decisions as JSON lines.
//
// With -follow the daemon is a warm standby: it boots the same way from
// its own WAL directory, then continuously pulls the primary's decision
// stream — which re-seeds it with a checkpoint if its cursor was compacted
// away — refusing writes (403) until POST /v1/replication/promote turns
// it into the primary under a higher fencing epoch. Adding -watch runs the failover
// watchdog in-process: the standby probes the primary's health itself
// and, after enough consecutive misses and a replication-lag check,
// promotes itself; no operator in the loop.
//
// -peers lists every other member of an N-node replication group. It
// sizes the synchronous-ack quorum (-repl-sync=quorum parks each
// admission until ⌊N/2⌋ follower cursors pass the decision's WAL frame,
// degrading to async past -repl-sync-timeout rather than failing) and it
// is the daemon's vote set: a daemon started with -peers promotes only
// after a majority of the group voted for it — whether -watch, gridbwctl
// or a bare POST /v1/replication/promote asked — and answers 409
// otherwise. -repl-id names this daemon in vote requests and follower-lag
// tables; it defaults to the listen address.
//
// Examples:
//
//	gridbwd -addr :8080 -ingress 1GB/s,1GB/s -egress 1GB/s,1GB/s -policy f=0.8
//	gridbwd -wal waldir -snapshot-every 30s -wal-compact
//	gridbwd -addr :8081 -wal standby-wal -follow http://primary:8080
//	gridbwd -addr :8081 -wal standby-wal -follow http://primary:8080 -watch
//	gridbwd -addr :8080 -wal pwal -peers http://b:8081,http://c:8082 -repl-sync=quorum
//	gridbwd -addr :8081 -wal bwal -follow http://a:8080 -watch -peers http://a:8080,http://c:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/faults"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridbwd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fset := flag.NewFlagSet("gridbwd", flag.ContinueOnError)
	addr := fset.String("addr", ":8080", "listen address")
	ingress := fset.String("ingress", "1GB/s,1GB/s", "comma-separated ingress capacities")
	egress := fset.String("egress", "1GB/s,1GB/s", "comma-separated egress capacities")
	policy := fset.String("policy", "minbw", "bandwidth-assignment policy: minbw, minbw-strict, or f=<x>")
	snapshotEvery := fset.Duration("snapshot-every", 0, "write a checkpoint into the -wal directory on this period and at shutdown (0 = never); boot installs it and replays only the WAL past it")
	walDir := fset.String("wal", "", "write-ahead log directory: every decision is CRC-framed and segmented here, beside the checkpoint; the recovery source and the replication stream")
	walFsync := fset.String("wal-fsync", "always", "WAL durability: always (fsync every append), interval, or never")
	walFsyncInterval := fset.Duration("wal-fsync-interval", 0, "fsync period under -wal-fsync=interval (0 = 100ms)")
	walSegmentBytes := fset.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold (0 = 8 MiB)")
	walCompact := fset.Bool("wal-compact", false, "after each checkpoint write, unlink WAL segments the checkpoint wholly covers")
	chaosDisk := fset.String("chaos-disk", "", "inject seeded disk faults into the WAL (chaos testing only): seed=N,short=P,write=P,fsync=P,enospc=P,rename=P,dirsync=P")
	follow := fset.String("follow", "", "boot as a read-only warm standby pulling decisions from the primary at this base URL")
	replID := fset.String("repl-id", "", "replication identity presented on pulls and votes (default: the listen address)")
	replSync := fset.String("repl-sync", "", "synchronous-ack mode: off, one, or quorum — park each admission until that many follower cursors pass its WAL frame (default off)")
	replSyncTimeout := fset.Duration("repl-sync-timeout", 0, "sync-ack parking deadline before degrading to async (0 = 2s)")
	peers := fset.String("peers", "", "comma-separated base URLs of every other replication-group member; sizes the sync-ack quorum and is the vote set every promotion of this daemon must win a majority of")
	watch := fset.Bool("watch", false, "run the failover watchdog in-process: probe the -follow primary and self-promote when it dies (majority-gated when -peers is set)")
	watchInterval := fset.Duration("watch-interval", 0, "watchdog probe period (0 = 2s, jittered ±25%)")
	watchMisses := fset.Int("watch-misses", 0, "consecutive probe misses before the primary is suspected (0 = 3)")
	watchMaxLag := fset.Int64("watch-max-lag", 0, "replication lag in bytes beyond which promotion is held (0 = 1 MiB, negative = unbounded)")
	drainTimeout := fset.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window for in-flight requests")
	maxInFlight := fset.Int("max-inflight", 0, "concurrent submissions before shedding with 429 (0 = default 64, negative = unbounded)")
	retryAfter := fset.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = default 1s)")
	maxBatch := fset.Int("max-batch", 0, "submissions accepted per POST /v1/batch call (0 = default 1024)")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *snapshotEvery > 0 && *walDir == "" {
		return errors.New("-snapshot-every requires -wal: the checkpoint lives in the WAL directory")
	}

	cfg := server.Config{
		Policy:      *policy,
		Follow:      *follow,
		MaxInFlight: *maxInFlight,
		RetryAfter:  *retryAfter,
		MaxBatch:    *maxBatch,
		ReplID:      *replID,
		SyncMode:    *replSync,
		SyncTimeout: *replSyncTimeout,
		Peers:       cluster.SplitURLs(*peers),
	}
	if cfg.ReplID == "" {
		cfg.ReplID = *addr
	}
	if len(cfg.Peers) > 0 {
		// In a group of G = peers+1 members, replicated durability means a
		// majority holds the frame: the primary plus the rest of it.
		cfg.SyncAcks = cluster.Majority(len(cfg.Peers)+1) - 1
	}
	var err error
	if cfg.Ingress, err = units.ParseBandwidths(*ingress); err != nil {
		return fmt.Errorf("-ingress: %w", err)
	}
	if cfg.Egress, err = units.ParseBandwidths(*egress); err != nil {
		return fmt.Errorf("-egress: %w", err)
	}
	if *walDir != "" {
		pol, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			return err
		}
		opt := wal.Options{
			SegmentBytes: *walSegmentBytes, Policy: pol, Interval: *walFsyncInterval,
		}
		if *chaosDisk != "" {
			dc, err := faults.ParseDiskConfig(*chaosDisk)
			if err != nil {
				return err
			}
			opt.FS = faults.NewDiskFS(nil, dc)
			log.Printf("chaos-disk armed on %s: %s", *walDir, *chaosDisk)
		}
		l, rec, err := wal.Open(*walDir, opt)
		if err != nil {
			return err
		}
		defer l.Close()
		log.Printf("wal %s: %s", *walDir, rec)
		cfg.WAL = l
	}

	srv, err := start(cfg)
	if err != nil {
		return err
	}
	log.Printf("boot: %s", srv.BootRoute())
	defer srv.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("gridbwd serving on %s (%s, policy %s, epoch %d)", *addr, srv.Network(), srv.PolicyName(), srv.Epoch())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *watch {
		if *follow == "" {
			return errors.New("-watch requires -follow (only a standby can watch its primary)")
		}
		wd, err := newInProcessWatchdog(srv, cluster.Config{
			Interval: *watchInterval, Misses: *watchMisses, MaxLagBytes: *watchMaxLag,
		})
		if err != nil {
			return err
		}
		go func() {
			if err := wd.Run(ctx); err == nil {
				log.Printf("watchdog: standby promoted itself (epoch %d)", wd.Status().Epoch)
			}
		}()
	}

	if *snapshotEvery > 0 {
		go func() {
			ticker := time.NewTicker(*snapshotEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := persistSnapshot(srv, cfg.WAL, *walCompact); err != nil {
						log.Printf("periodic checkpoint: %v", err)
					}
				}
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop the listener and drain in-flight admissions
	// within the timeout, then stop the expiry loop and checkpoint the final
	// ledger so a restart resumes without violating capacity constraints.
	log.Printf("shutting down: draining for up to %s", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	srv.Close()
	if *snapshotEvery > 0 {
		if err := persistSnapshot(srv, cfg.WAL, *walCompact); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		log.Printf("wrote %s", filepath.Join(cfg.WAL.Dir(), server.CheckpointName))
	}
	return nil
}

// newInProcessWatchdog builds the watchdog a watched standby runs inside
// its own process: the primary is probed over HTTP, but the standby-side
// seams call straight into the local server — its own replication status
// and its own Promote — instead of looping back through the listener. Each
// tick probes the primary the server follows then, not the -follow URL it
// booted with: once the pull loop re-points at an election winner, the dead
// primary's silence must not keep driving vote rounds against the live one.
// The watchdog's state is surfaced on the daemon's /v1/metricsz.
func newInProcessWatchdog(srv *server.Server, cfg cluster.Config) (*cluster.Watchdog, error) {
	cfg.Probe = func(ctx context.Context) error {
		return cluster.ProbeHealthz(ctx, nil, srv.ReplicationStatus().Source)
	}
	cfg.StandbyStatus = func(ctx context.Context) (cluster.ReplicationStatus, error) {
		return srv.ReplicationStatus(), nil
	}
	cfg.Promote = func(ctx context.Context) (uint64, error) {
		epoch, err := srv.Promote()
		if errors.Is(err, server.ErrNotFollower) {
			// Someone else promoted this daemon first; that is success.
			return epoch, nil
		}
		return epoch, err
	}
	cfg.OnTransition = func(from, to cluster.State, in cluster.Input) {
		log.Printf("watchdog: %s -> %s on %s", from, to, in)
	}
	wd, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.SetWatchdogState(wd.State)
	return wd, nil
}

// start boots the server (server.New) and, on a follower, starts pulling.
func start(cfg server.Config) (*server.Server, error) {
	srv, err := server.New(cfg)
	if err != nil || cfg.Follow == "" {
		return srv, err
	}
	if err := srv.StartFollowing(); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// persistSnapshot writes the checkpoint durably into the WAL directory
// and, when asked, compacts the WAL segments it now wholly covers.
func persistSnapshot(srv *server.Server, l *wal.Log, compact bool) error {
	snap, err := srv.WriteCheckpoint()
	if err != nil {
		return err
	}
	if compact {
		if n, err := l.CompactBefore(snap.WALPos()); err != nil {
			log.Printf("wal compaction: %v", err)
		} else if n > 0 {
			log.Printf("wal: compacted %d segment(s) before %v", n, snap.WALPos())
		}
	}
	return nil
}
