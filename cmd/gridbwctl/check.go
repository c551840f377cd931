package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gridbw/internal/check"
	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// runCheck verifies a chaos run after the fact: it reads the
// client-observed operation history a gridbwload -history run recorded
// and the surviving daemon's WAL, and checks the invariants that make
// the admission guarantees trustworthy under failure — no admission the
// client was told is replicated may be missing, no idempotency key may
// have admitted twice, fencing epochs never run backwards, and the
// booked grants never oversubscribe a capacity. A clean history prints
// one verdict line; otherwise one line per violation, and an error.
//
// With -wal repeated, the run is checked as a router-tier deployment:
// each -wal names one shard group's surviving WAL, in the router's ring
// order (the order of its -shard flags). The per-shard invariants run
// against each WAL with visible IDs decoded back to shard-local ones,
// hold-booked bandwidth folds into the capacity sweep, and two
// router-only guarantees are added — every cross-shard hold committed
// on both its owners or on neither, and every admission acked
// routed=cross_shard backed by a committed ingress-side hold.
func runCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gridbwctl check", flag.ContinueOnError)
	history := fs.String("history", "", "client-observed operation history (JSON lines, from gridbwload -history)")
	ingress := fs.String("ingress", "1GB/s,1GB/s", "comma-separated ingress capacities each daemon ran with")
	egress := fs.String("egress", "1GB/s,1GB/s", "comma-separated egress capacities each daemon ran with")
	var walDirs []string
	fs.Func("wal", "surviving daemon's WAL directory: the decision history of record. Repeat once per shard group, in the router's ring order, to check a router-tier run", func(v string) error {
		walDirs = append(walDirs, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *history == "" || len(walDirs) == 0 {
		return fmt.Errorf("both -history and -wal are required")
	}

	f, err := os.Open(*history)
	if err != nil {
		return err
	}
	ops, err := check.ReadJSONL(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", *history, err)
	}

	inCaps, err := units.ParseBandwidths(*ingress)
	if err != nil {
		return fmt.Errorf("-ingress: %w", err)
	}
	egCaps, err := units.ParseBandwidths(*egress)
	if err != nil {
		return fmt.Errorf("-egress: %w", err)
	}

	var shards []check.ShardFinal
	total := 0
	for _, dir := range walDirs {
		// Read-only: the directory under audit is the evidence, and a
		// half-written last frame is what recovery would cut, not a verdict.
		var events []trace.Event
		_, err := server.ReadWALDir(dir, wal.Pos{}, func(ev trace.Event) error {
			events = append(events, ev)
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
		total += len(events)
		shards = append(shards, check.ShardFinal{Name: dir, Final: check.Final{
			Events: events, IngressBps: bps(inCaps), EgressBps: bps(egCaps),
		}})
	}

	var violations []check.Violation
	if len(shards) == 1 {
		violations = check.Verify(ops, shards[0].Final)
	} else {
		violations = check.VerifyShards(ops, shards)
	}
	for _, v := range violations {
		fmt.Fprintf(out, "VIOLATION %s: %s\n", v.Invariant, v.Detail)
	}
	if n := len(violations); n > 0 {
		return fmt.Errorf("%d invariant violation(s) across %d ops and %d events", n, len(ops), total)
	}
	fmt.Fprintf(out, "clean: %d client ops checked against %d logged decisions on %d shard(s), 0 violations\n",
		len(ops), total, len(shards))
	return nil
}

// bps lists capacities as the checker reads them.
func bps(caps []units.Bandwidth) []float64 {
	out := make([]float64, len(caps))
	for i, c := range caps {
		out[i] = float64(c)
	}
	return out
}
