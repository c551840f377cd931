package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"gridbw/internal/check"
	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/wal"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Invalid explains why the open-loop latencies cannot be trusted (the
	// pinned rate is too high for this box); empty on a valid run.
	Invalid  string            `json:"invalid,omitempty"`
	Failures []string          `json:"failures,omitempty"`
	Notes    map[string]string `json:"notes,omitempty"`
	Env      *envInfo          `json:"env,omitempty"`
	Budget   *budget           `json:"budget,omitempty"`
}

const (
	nClients = 2
	// A run boots and warms the topology at least minSetups times, and
	// again while that has taken less than setupShare of the measured time,
	// up to maxSetups; setup_s is the median, the last instance is the one
	// measured.
	minSetups  = 3
	maxSetups  = 9
	setupShare = 0.06
	// rounds is how many closed-loop/open-loop pairs the measured time is
	// cut into, and closedShare the closed loops' part of it.
	rounds      = 5
	closedShare = 0.35
	// yardSoloFor is how long the yardstick is timed after each set-up.
	yardSoloFor = 150 * time.Millisecond
)

// setup boots the workload's own topology and warms it up. Single-daemon
// and quorum topologies are warmed by direct SubmitBatch calls on the
// primary; a routed topology has to be warmed through the router, because
// only the hold protocol loads both owners of a cross-shard pair.
func setup(w *workloadSpec, kind topoKind, seed int64, dir string, hooks *traceHooks, warmup int) (*stack, *driver, error) {
	t, err := boot(w, kind, dir, hooks)
	if err != nil {
		return nil, nil, err
	}
	d := newDriver(w, t, seed)
	wk := d.workerFor(0, 0)
	wk2 := d.workerFor(1, 0)
	ctx := context.Background()
	var subs []server.Submission
	var wire []server.SubmitRequest
	// Warm-up arrives in bursts of the workload's own batch size: a bigger
	// burst would advance the virtual clock past most transfer times at
	// once and warm a different regime than the one measured.
	chunk := w.batchSize
	// Warm-up cancels at the measured mix's cancels-per-submission ratio,
	// so occupancy is already at the mix's equilibrium when timing starts.
	cancelShare := float64(w.mix[opCancel]) / float64(w.mix[opSubmit]+w.mix[opBatch]*w.batchSize)
	cancelDebt := 0.0
	for done, j := 0, 0; done < warmup; done, j = done+chunk, j+1 {
		r := opStream(seed, phaseWarmup, j)
		gap := 0.0
		draws := wk.reqs[:0]
		for i := 0; i < chunk; i++ {
			dr := w.drawRequest(&r, d.vols)
			gap += dr.gap
			draws = append(draws, dr)
		}
		wk.reqs = draws
		now := t.clock.advance(gap)
		wire = wire[:0]
		for i, dr := range draws {
			wire = append(wire, dr.wireRequest(now, idemKey(seed, phaseWarmup, j, i), false))
		}
		decs := make([]server.ReservationJSON, 0, chunk)
		if kind == topoRouted {
			items, err := t.client.SubmitBatchBinary(ctx, wire)
			if err != nil {
				t.close()
				return nil, nil, fmt.Errorf("warm-up batch %d: %w", j, err)
			}
			for i, it := range items {
				if it.Reservation == nil {
					t.close()
					return nil, nil, fmt.Errorf("warm-up batch %d item %d: %s", j, i, it.Error)
				}
				decs = append(decs, *it.Reservation)
			}
		} else {
			subs = subs[:0]
			for _, q := range wire {
				subs = append(subs, submissionOf(q))
			}
			res, err := t.nodes[0].srv.SubmitBatch(subs)
			if err != nil {
				t.close()
				return nil, nil, fmt.Errorf("warm-up batch %d: %w", j, err)
			}
			for i, br := range res {
				if br.Err != nil {
					t.close()
					return nil, nil, fmt.Errorf("warm-up batch %d item %d: %w", j, i, br.Err)
				}
				dec := server.ReservationJSON{
					ID: int(br.Decision.ID), Accepted: br.Decision.Accepted, State: string(br.Decision.State),
					RateBps: float64(br.Decision.Rate), SigmaS: float64(br.Decision.Sigma), TauS: float64(br.Decision.Tau),
				}
				decs = append(decs, dec)
			}
		}
		for i, dec := range decs {
			if err := checkDecision(wire[i], dec); err != nil {
				d.fail("warm-up: %v", err)
			}
			if !d.ids.set(dec.ID) {
				d.fail("warm-up: reservation ID %d issued twice", dec.ID)
			}
			if !dec.Accepted {
				continue
			}
			if cancelDebt += cancelShare; cancelDebt >= 1 {
				cancelDebt--
				if err := t.warmCancel(ctx, dec.ID); err != nil {
					t.close()
					return nil, nil, fmt.Errorf("warm-up cancel %d: %w", dec.ID, err)
				}
				continue
			}
			if done < warmup/4 && len(d.old) < 4096 {
				d.old = append(d.old, dec.ID)
			}
			// Alternate the warm-up grants between the clients so both
			// have live reservations to cancel from the first op on.
			ref := resRef{id: dec.ID, rate: dec.RateBps, sigma: dec.SigmaS, tau: dec.TauS, cross: d.crossPair(wire[i].From, wire[i].To)}
			if i%2 == 0 {
				wk.remember(ref)
			} else {
				wk2.remember(ref)
			}
		}
	}
	d.submissions.Store(int64(warmup))
	return t, d, nil
}

// warmCancel cancels a warm-up grant the way the warm-up submitted it.
func (t *stack) warmCancel(ctx context.Context, id int) error {
	if t.kind == topoRouted {
		_, err := t.client.Cancel(ctx, id)
		return err
	}
	_, err := t.nodes[0].srv.Cancel(request.ID(id))
	return err
}

// live counts the reservations currently holding capacity on the
// write-accepting daemons.
func (t *stack) live() int {
	n := 0
	for _, nd := range t.nodes {
		st := nd.srv.Status()
		n += st.Active + st.Booked
		held, confirmed := nd.srv.HoldStats()
		n += held + confirmed
	}
	return n
}

// latencies returns the sorted open-loop latencies of one op kind — the
// program's, or with yard set the yardstick's — each counted from the
// instant the op was due.
func latencies(recs [][]opRec, kind opKind, yard bool) []int64 {
	var out []int64
	for _, list := range recs {
		for _, r := range list {
			if r.kind == kind && r.yard == yard && !r.failed {
				out = append(out, r.end-r.due)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tailNote describes a latency sample: its size and the highest
// percentile it can speak for.
func tailNote(sorted []int64) string {
	p := highestPercentile(len(sorted))
	return fmt.Sprintf("%d samples; p%g = %.1f us", len(sorted), p, float64(percentile(sorted, p))/1e3)
}

// loadgenStats describes how faithfully the open loop was generated.
type loadgenStats struct {
	offered, achieved float64 // ops/s
	latenessP99us     float64 // generator lateness: start − max(due, worker free)
	backlogMax        int
	growing           bool
}

func openLoopStats(recs [][]opRec, due []int64, dur float64) loadgenStats {
	var all []opRec
	for _, list := range recs {
		all = append(all, list...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	ls := loadgenStats{offered: float64(len(due)) / dur}
	if len(all) == 0 {
		return ls
	}
	var lastEnd int64
	late := make([]int64, 0, len(all))
	for _, r := range all {
		ready := r.due
		if r.free > ready {
			ready = r.free
		}
		late = append(late, r.start-ready)
		if r.end > lastEnd {
			lastEnd = r.end
		}
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	ls.latenessP99us = float64(percentile(late, 99)) / 1e3
	ls.achieved = float64(len(all)) / (float64(lastEnd) / 1e9)
	// Backlog when op i starts: ops already due but not yet started.
	starts := make([]int64, len(all))
	for i, r := range all {
		starts[i] = r.start
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	quarter := make([]float64, 4)
	count := make([]float64, 4)
	k := 0
	for i, s := range starts {
		for k < len(all) && all[k].due <= s {
			k++
		}
		b := k - i - 1
		if b > ls.backlogMax {
			ls.backlogMax = b
		}
		q := i * 4 / len(starts)
		quarter[q] += float64(b)
		count[q]++
	}
	for q := range quarter {
		if count[q] > 0 {
			quarter[q] /= count[q]
		}
	}
	ls.growing = quarter[3] > 2*quarter[1]+2
	return ls
}

// walFinal re-opens a node's WAL directory and reads its whole event
// history — the ground truth internal/check verifies the client history
// against.
func walFinal(w *workloadSpec, dir string) (check.Final, error) {
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return check.Final{}, err
	}
	defer l.Close()
	events, _, err := server.ReadWALEvents(l, wal.Pos{})
	if err != nil {
		return check.Final{}, err
	}
	caps := make([]float64, w.points)
	for i := range caps {
		caps[i] = float64(w.capacity)
	}
	return check.Final{Events: events, IngressBps: caps, EgressBps: caps}, nil
}

// finalChecks runs the end-of-run correctness checks and closes the
// topology. Every failure lands in the driver's failure list.
func finalChecks(t *stack, d *driver) {
	for _, n := range t.servers() {
		if err := n.srv.VerifyInvariant(); err != nil {
			d.fail("node %s: eq. (1) violated: %v", n.name, err)
		}
	}
	if t.kind == topoQuorum {
		if n := t.nodes[0].srv.Status().Stats.SyncDegraded; n != 0 {
			d.fail("%d sync-ack waits degraded", n)
		}
		if err := t.quiesce(10 * time.Second); err != nil {
			d.fail("%v", err)
		}
	}
	t.close()
	if d.hist == nil {
		return
	}
	var viol []check.Violation
	switch t.kind {
	case topoQuorum:
		// Every member holds the same history once quiesced; the checker
		// reads the follower that a failover would promote.
		fin, err := walFinal(d.w, t.follows[0].walDir)
		if err != nil {
			d.fail("read follower WAL: %v", err)
			return
		}
		viol = check.Verify(d.hist.Ops(), fin)
	case topoRouted:
		var shards []check.ShardFinal
		for _, n := range t.nodes {
			fin, err := walFinal(d.w, n.walDir)
			if err != nil {
				d.fail("read shard %s WAL: %v", n.name, err)
				return
			}
			shards = append(shards, check.ShardFinal{Name: n.name, Final: fin})
		}
		viol = check.VerifyShards(d.hist.Ops(), shards)
	}
	for _, v := range viol {
		if v.Invariant == "capacity" {
			// The checker's capacity sweep places a cancel (or a hold
			// abort) at the virtual instant it was logged and an admission
			// at the instant its clock was read. Two in-flight operations
			// can be ordered the other way round when the virtual clock
			// jumps between those two reads, and the sweep then sees an
			// overlap that never existed on the ledger. Eq. (1) is checked
			// on the ledgers themselves, by VerifyInvariant above.
			d.capacityFindings++
			continue
		}
		d.fail("history check: %s", v)
	}
}

// runWorkload is one untraced measurement run: set-up, rounds of a closed
// and an open loop, checks. seconds is the measured time, split 35/65
// between the closed and the open loops: throughput and per-admission cost
// settle in a few seconds, latency medians need every sample the pinned
// rate yields.
func runWorkload(w *workloadSpec, seed int64, seconds float64, outDir string) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Metrics: map[string]metric{}, Notes: map[string]string{}}
	dir := filepath.Join(outDir, "tmp", fmt.Sprintf("%s-%d", w.name, seed))

	// The yardstick the timings are calibrated against (yard.go).
	vols := w.volumes()
	yard, err := newYardstick(w)
	if err != nil {
		return nil, err
	}
	defer yard.close()
	yardAllocs, err := yard.allocsPerOp(seed, vols)
	if err != nil {
		return nil, err
	}

	var t *stack
	var d *driver
	var setups, rawSetups, yardSolo []float64
	setupStart := time.Now()
	for round := 0; round < minSetups || (round < maxSetups && time.Since(setupStart).Seconds() < setupShare*seconds); round++ {
		if t != nil {
			t.close()
			t.removeDirs()
		}
		t0 := time.Now()
		var err error
		if t, d, err = setup(w, w.topo, seed, dir, nil, w.warmup); err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, took)
		us, err := yard.solo(seed, vols, yardSoloFor)
		if err != nil {
			t.close()
			return nil, err
		}
		yardSolo = append(yardSolo, us)
		setups = append(setups, took*w.yard.soloUs/us)
	}
	defer t.removeDirs()
	d.yard = yard
	res.Notes["live_reservations_after_warmup"] = fmt.Sprint(t.live())

	// The measured time is cut into rounds, each a closed loop followed by
	// an open loop, so both sample the whole run.
	closedDur := time.Duration(seconds * closedShare / rounds * float64(time.Second))
	openDur := seconds * (1 - closedShare) / rounds
	var throughput, rawThroughput, yardClosed, allocs, lateness []float64
	var samples [numOps][]int64
	var yardOpen []int64
	var ls loadgenStats
	var closedOps, openOps, growing int
	v0 := t.clock.seconds()
	for round := 0; round < rounds; round++ {
		first := round << 24 // op numbers of one round, far from the next round's

		// Closed loop: throughput and allocations per admission. A client
		// spends its time in the daemon's operations and in the yardstick's,
		// and each side is rated over its own share of that time.
		m0 := mallocs()
		closed := d.closedLoop(phaseClosed, nClients, closedDur, first, 0)
		m1 := mallocs()
		var decided, yardOps, busy, yardBusy int64
		for _, list := range closed {
			for _, r := range list {
				if r.yard {
					yardOps++
					yardBusy += r.end - r.start
					continue
				}
				closedOps++
				busy += r.end - r.start
				if (r.kind == opSubmit || r.kind == opBatch) && !r.failed {
					decided += int64(r.items)
				}
			}
		}
		if decided == 0 || yardOps == 0 {
			t.close()
			return nil, fmt.Errorf("closed loop decided nothing")
		}
		raw := nClients * float64(decided) / (float64(busy) / 1e9)
		yardUs := float64(yardBusy) / 1e3 / float64(yardOps)
		rawThroughput = append(rawThroughput, raw)
		yardClosed = append(yardClosed, yardUs)
		throughput = append(throughput, raw*yardUs/w.yard.closedUs)
		allocs = append(allocs, (float64(m1-m0)-float64(yardOps)*yardAllocs)/float64(decided))

		// Open loop: latency at the pinned offered rate.
		due := schedule(seed, round, w.openRate, openDur)
		open := d.openLoop(phaseOpen, nClients, first, due)
		for kind := opSubmit; kind < numOps; kind++ {
			samples[kind] = append(samples[kind], latencies(open, kind, false)...)
		}
		ylat := latencies(open, opSubmit, true)
		yardOpen = append(yardOpen, ylat...)
		openOps += len(due) - len(ylat)
		rs := openLoopStats(open, due, openDur)
		ls.offered += rs.offered / rounds
		ls.achieved += rs.achieved / rounds
		lateness = append(lateness, rs.latenessP99us)
		if rs.backlogMax > ls.backlogMax {
			ls.backlogMax = rs.backlogMax
		}
		if rs.growing {
			growing++
		}
	}
	ls.latenessP99us = median(lateness)
	ls.growing = growing > rounds/2
	res.Attempted = int64(closedOps + openOps)
	span := t.clock.seconds() - v0
	res.Notes["live_reservations_after_measuring"] = fmt.Sprint(t.live())
	// Before the checks: reading the WALs back is the harness's memory,
	// not the control plane's.
	rss := peakRSSMB()

	finalChecks(t, d)

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", median(setups), "s")
	put("raw.setup_s", median(rawSetups), "s")
	put("admit_throughput_per_s", median(throughput), "1/s")
	// Latency medians over all rounds' samples, divided by the yardstick's
	// slowdown over the same rounds.
	sort.Slice(yardOpen, func(i, j int) bool { return yardOpen[i] < yardOpen[j] })
	yardUs := float64(percentile(yardOpen, 50)) / 1e3
	if yardUs == 0 {
		return nil, fmt.Errorf("open loop sent the yardstick nothing")
	}
	slowdown := yardUs / w.yard.openUs
	put("yard.solo_us", median(yardSolo), "us")
	res.Notes["yard.solo_us"] = fmt.Sprintf("nominal %.0f us", w.yard.soloUs)
	put("yard.closed_us", median(yardClosed), "us")
	res.Notes["yard.closed_us"] = fmt.Sprintf("nominal %.0f us", w.yard.closedUs)
	put("yard.open_p50_us", yardUs, "us")
	res.Notes["yard.open_p50_us"] = fmt.Sprintf("nominal %.0f us; %d samples", w.yard.openUs, len(yardOpen))
	put("raw.admit_throughput_per_s", median(rawThroughput), "1/s")
	var rawP50 [numOps]float64
	for kind := opSubmit; kind < numOps; kind++ {
		name := kind.String() + "_p50_us"
		all := samples[kind]
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		rawP50[kind] = float64(percentile(all, 50)) / 1e3
		put(name, rawP50[kind]/slowdown, "us")
		put("raw."+name, rawP50[kind], "us")
		res.Notes["raw."+name] = tailNote(all)
	}
	put("accept_rate", float64(d.acceptedN)/float64(d.decided), "ratio")
	put("resource_util", d.grantedVolume/(w.halfCapacity()*span), "ratio")
	put("allocs_per_admit", median(allocs), "count")
	put("peak_rss_mb", rss, "MB")

	// Kept beside the end-to-end set for the validity verdict and the
	// human report; BENCHMARK.json lists them as per-layer metrics.
	put("failed_share", float64(d.failed)/float64(res.Attempted), "ratio")
	put("loadgen.offered_per_s", ls.offered, "1/s")
	put("loadgen.achieved_per_s", ls.achieved, "1/s")
	put("loadgen.lateness_p99_us", ls.latenessP99us, "us")
	put("loadgen.backlog_max", float64(ls.backlogMax), "count")

	res.Failed = d.failed
	res.Failures = d.failures
	res.Correct = d.failed == 0
	res.Notes["lookups_404"] = fmt.Sprint(d.notFound)
	res.Notes["cancels_409"] = fmt.Sprint(d.conflicts)
	if d.hist != nil {
		res.Notes["history_capacity_findings_ignored"] = fmt.Sprint(d.capacityFindings)
	}
	res.Notes["virtual_span_s"] = fmt.Sprintf("%.0f", span)
	res.Notes["closed_loop_ops"] = fmt.Sprint(closedOps)
	res.Notes["open_loop_ops"] = fmt.Sprint(openOps)
	res.Notes["rounds"] = fmt.Sprintf("throughput %.0f, raw %.0f, yardstick closed-loop us %.1f", throughput, rawThroughput, yardClosed)
	// The generator must be punctual against the workload's most frequent
	// operation, and the two connections must keep up with the schedule.
	dominant := opSubmit
	for kind := opSubmit; kind < numOps; kind++ {
		if w.mix[kind] > w.mix[dominant] {
			dominant = kind
		}
	}
	switch {
	case ls.growing:
		res.Invalid = fmt.Sprintf("open-loop backlog still growing at the end (max %d): %g ops/s is too high for this box", ls.backlogMax, w.openRate)
	case ls.latenessP99us > rawP50[dominant]:
		res.Invalid = fmt.Sprintf("generator lateness p99 %.0f us exceeds the raw %s p50 %.0f us", ls.latenessP99us, dominant, rawP50[dominant])
	}
	return res, nil
}
