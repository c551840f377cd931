// Command gridbwctl is the operator tool for a gridbwd deployment. It is
// the out-of-process counterpart of the daemon's -watch flag: the same
// cluster.Watchdog, run from an operator box (or a third machine, where it
// doubles as an external arbiter). It reads a daemon's WAL, fronts a group
// with TCP chaos links, and audits a chaos run's client history against
// the surviving WALs.
//
//	gridbwctl status  http://a:8080 http://b:8081     replication view of each endpoint
//	gridbwctl promote http://b:8081                   promote a standby by hand
//	gridbwctl watch -primary http://a:8080 -standby http://b:8081
//	                                                  probe the primary, auto-promote the standby
//	gridbwctl watch -resume -endpoints http://a:8080,http://b:8081,http://c:8082
//	                                                  guard the group across successive failovers
//	gridbwctl tail -wal waldir [-from 3:4096]         print the logged decisions as JSON lines
//	gridbwctl chaos -admin 127.0.0.1:7800 -link 'a->b=>127.0.0.1:17801=>127.0.0.1:8081'
//	                                                  TCP chaos proxies with an HTTP admin API
//	gridbwctl check -history ops.jsonl -wal waldir    audit a chaos run; exit 1 on any violation
//
// Whether a promotion needs a majority is decided by the daemon being
// promoted, not here: a gridbwd started with -peers holds its own vote
// round and answers a refusal (HTTP 409) without one, so promote and watch
// are gated exactly alike.
//
// Without -resume, watch exits 0 once the standby is primary — whether
// this watchdog promoted it or found it already promoted — so it can
// anchor a supervise-and-restart loop. With -resume it re-arms against
// the rediscovered group after each failover and only stops on a signal.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/trace"
	"gridbw/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridbwctl:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: gridbwctl <status|promote|watch|tail|chaos|check> ...")
	}
	switch args[0] {
	case "status":
		return runStatus(ctx, args[1:], out)
	case "promote":
		return runPromote(ctx, args[1:], out)
	case "watch":
		return runWatch(ctx, args[1:], out)
	case "tail":
		return runTail(args[1:], out)
	case "chaos":
		return runChaos(ctx, args[1:], out)
	case "check":
		return runCheck(args[1:], out)
	default:
		return fmt.Errorf("unknown command %q (want status, promote, watch, tail, chaos or check)", args[0])
	}
}

// runStatus prints one line per endpoint: role, epoch, cursor and lag.
// Unreachable endpoints are reported, not fatal — during a failover that
// is exactly the interesting case.
func runStatus(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: gridbwctl status <url>...")
	}
	for _, base := range args {
		c := client.NewWithOptions(base, nil, client.Options{MaxRetries: -1})
		rs, err := c.Replication(ctx)
		if err != nil {
			fmt.Fprintf(out, "%s\tunreachable\t%v\n", base, err)
			continue
		}
		line := fmt.Sprintf("%s\t%s\tepoch=%d\tcursor=%d/%d\tapplied=%d\tlag=%dB",
			base, rs.Role, rs.Epoch, rs.Cursor.Seg, rs.Cursor.Off, rs.Applied, rs.LagBytes)
		if rs.ID != "" {
			line += "\tid=" + rs.ID
		}
		if rs.SyncMode != "" && rs.SyncMode != "off" {
			line += fmt.Sprintf("\tsync=%s/%d", rs.SyncMode, rs.SyncAcks)
		}
		if rs.VotedEpoch != 0 {
			line += fmt.Sprintf("\tvoted=%s@%d", rs.VotedFor, rs.VotedEpoch)
		}
		if rs.LastError != "" {
			line += "\terr=" + rs.LastError
		}
		fmt.Fprintln(out, line)
		// A primary also carries its follower ack table: one indented line
		// per pulling follower, the live view of the replication quorum.
		ids := make([]string, 0, len(rs.Followers))
		for id := range rs.Followers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			f := rs.Followers[id]
			fmt.Fprintf(out, "  follower %s\tcursor=%d/%d\tlag=%dB\tage=%.1fs\n",
				id, f.Cursor.Seg, f.Cursor.Off, f.LagBytes, f.AgeS)
		}
	}
	return nil
}

// runPromote promotes one standby and prints the resulting role/epoch.
// Idempotent by the daemon's contract: promoting a primary answers its
// current epoch. A standby whose group denied it a majority refuses, and
// the returned error carries its answer: votes granted and needed, and the
// voter that said no.
func runPromote(ctx context.Context, args []string, out io.Writer) error {
	if len(args) != 1 {
		return errors.New("usage: gridbwctl promote <url>")
	}
	c := client.New(args[0], nil)
	pr, err := c.Promote(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\t%s\tepoch=%d\n", args[0], pr.Role, pr.Epoch)
	return nil
}

// runWatch runs the failover watchdog over HTTP until the standby is
// primary or ctx is cancelled — or, with -resume, until ctx alone: after
// each completed failover the watchdog re-arms against the rediscovered
// group and keeps guarding it.
func runWatch(ctx context.Context, args []string, out io.Writer) error {
	fset := flag.NewFlagSet("gridbwctl watch", flag.ContinueOnError)
	primary := fset.String("primary", "", "base URL of the primary to probe (optional with -resume: discovered from -endpoints)")
	standby := fset.String("standby", "", "base URL of the standby to promote (optional with -resume: discovered from -endpoints)")
	interval := fset.Duration("interval", 0, "probe period (0 = 2s, jittered ±25%)")
	misses := fset.Int("misses", 0, "consecutive probe misses before suspecting the primary (0 = 3)")
	maxLag := fset.Int64("max-lag", 0, "replication lag in bytes beyond which promotion is held (0 = 1 MiB, negative = unbounded)")
	resume := fset.Bool("resume", false, "re-arm against the rediscovered group after each failover instead of exiting; requires -endpoints")
	endpoints := fset.String("endpoints", "", "comma-separated base URLs of every group member, for -resume role rediscovery")
	if err := fset.Parse(args); err != nil {
		return err
	}
	eps := cluster.SplitURLs(*endpoints)
	if *resume && len(eps) < 2 {
		return errors.New("watch -resume needs -endpoints with at least two group members")
	}
	if *primary == "" || *standby == "" {
		if !*resume {
			return errors.New("watch needs -primary and -standby (or -resume with -endpoints)")
		}
		p, s, err := cluster.Survey(ctx, &http.Client{Timeout: 2 * time.Second}, eps).Roles()
		if err != nil {
			return err
		}
		if *primary == "" {
			*primary = p
		}
		if *standby == "" {
			*standby = s
		}
		fmt.Fprintf(out, "discovered primary %s, standby %s\n", *primary, *standby)
	}
	wd, err := cluster.New(cluster.Config{
		Primary: *primary, Standby: *standby,
		Interval: *interval, Misses: *misses, MaxLagBytes: *maxLag,
		Resume: *resume, Endpoints: eps,
		OnTransition: func(from, to cluster.State, in cluster.Input) {
			fmt.Fprintf(out, "%s\twatchdog %s -> %s on %s\n", time.Now().Format(time.RFC3339), from, to, in)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "watching %s (standby %s)\n", *primary, *standby)
	if err := wd.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(out, "standby %s is primary (epoch %d)\n", *standby, wd.Status().Epoch)
	return nil
}

// runTail prints the decisions a WAL directory logged as JSON lines, one
// trace.Event each, in log order, from -from (default: the oldest record
// still on disk). It only reads the directory, so it is safe on a live
// daemon's, and it stops quietly at a half-written last frame.
func runTail(args []string, out io.Writer) error {
	fset := flag.NewFlagSet("gridbwctl tail", flag.ContinueOnError)
	dir := fset.String("wal", "", "the daemon's WAL directory")
	from := fset.String("from", "", "WAL position SEG:OFF to start at, as /v1/replication/status prints it (default: the oldest record)")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *dir == "" || fset.NArg() != 0 {
		return errors.New("usage: gridbwctl tail -wal DIR [-from SEG:OFF]")
	}
	var pos wal.Pos
	if *from != "" {
		if _, err := fmt.Sscanf(*from, "%d:%d", &pos.Seg, &pos.Off); err != nil || pos.Off < 0 || pos.String() != *from {
			return fmt.Errorf("-from %q: want SEG:OFF", *from)
		}
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	_, err := server.ReadWALDir(*dir, pos, func(ev trace.Event) error { return enc.Encode(ev) })
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	return err
}
