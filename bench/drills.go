package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"gridbw/internal/alloc"
	"gridbw/internal/core"
	"gridbw/internal/request"
	"gridbw/internal/router"
	"gridbw/internal/sched/flexible"
	"gridbw/internal/server"
	"gridbw/internal/topology"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// Drills replay the workload's generated inputs straight into one layer's
// public functions, on an instance configured and warmed like the
// workload's daemon. They split what interposition cannot: decode from
// core inside a handler, the profile scan inside an admission.

// timeLoop calls fn n times in each of groups rounds and returns the
// median per-call time in ns; grouping keeps the timer out of
// sub-microsecond calls.
func timeLoop(groups, n int, fn func(i int)) float64 {
	per := make([]float64, 0, groups)
	i := 0
	for g := 0; g < groups; g++ {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			fn(i)
			i++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// drillDraws generates n requests of the workload's traffic.
func drillDraws(w *workloadSpec, seed int64, n int) []reqDraw {
	vols := w.volumes()
	out := make([]reqDraw, 0, n)
	for j := 0; len(out) < n; j++ {
		r := opStream(seed, phaseDrill, j)
		out = append(out, w.drawRequest(&r, vols))
	}
	return out
}

// submissionOf is the direct-call form of a wire request whose fields are
// all numeric and absolute, as every request the harness generates is.
func submissionOf(q server.SubmitRequest) server.Submission {
	return server.Submission{
		From: q.From, To: q.To, Volume: units.Volume(q.VolumeBytes), MaxRate: units.Bandwidth(q.MaxRateBps),
		NotBefore: units.Time(q.NotBeforeS), Deadline: units.Time(q.DeadlineS),
		IdempotencyKey: q.IdempotencyKey, Durable: q.Durable,
	}
}

const drillN = 2000

// codecDrills times the wire codecs on the workload's requests.
func codecDrills(w *workloadSpec, seed int64, put func(string, float64, string)) error {
	draws := drillDraws(w, seed, 64)
	reqs := make([]server.SubmitRequest, len(draws))
	subs := make([]server.WireSubmission, len(draws))
	results := make([]server.BatchResult, len(draws))
	for i, d := range draws {
		reqs[i] = d.wireRequest(1000, idemKey(seed, phaseDrill, 0, i), w.durable)
		ws, err := reqs[i].Wire()
		if err != nil {
			return err
		}
		subs[i] = ws
		results[i] = server.BatchResult{Decision: server.Decision{
			ID: request.ID(i + 1), Accepted: true, State: server.StateActive,
			Rate: units.Bandwidth(d.maxRate / 2), Sigma: 1000, Tau: units.Time(1000 + 2*d.volume/d.maxRate),
		}}
	}
	items, err := server.DecodeBinaryBatchResponse(server.AppendBinaryBatchResponse(nil, results))
	if err != nil {
		return err
	}
	var derr error
	// One submit's JSON work on both ends: request out and in, decision
	// out and in.
	ns := timeLoop(20, 100, func(i int) {
		q := reqs[i%len(reqs)]
		blob, _ := json.Marshal(q)
		var back server.SubmitRequest
		if err := json.Unmarshal(blob, &back); err != nil {
			derr = err
		}
		if _, err := back.Wire(); err != nil {
			derr = err
		}
		blob, _ = json.Marshal(items[i%len(items)].Reservation)
		var dec server.ReservationJSON
		if err := json.Unmarshal(blob, &dec); err != nil {
			derr = err
		}
	})
	put("codec.json_submit_us", ns/1e3, "us")
	n := w.batchSize
	if n > len(reqs) {
		n = len(reqs)
	}
	ns = timeLoop(20, 20, func(int) {
		blob, _ := json.Marshal(server.BatchRequest{Requests: reqs[:n]})
		var back server.BatchRequest
		if err := json.Unmarshal(blob, &back); err != nil {
			derr = err
		}
		blob, _ = json.Marshal(server.BatchResponse{Results: items[:n]})
		var resp server.BatchResponse
		if err := json.Unmarshal(blob, &resp); err != nil {
			derr = err
		}
	})
	put("codec.json_batch_us_per_item", ns/1e3/float64(n), "us")
	frame := server.AppendBinaryBatchRequest(nil, subs[:n])
	ns = timeLoop(20, 200, func(int) {
		if _, err := server.DecodeBinaryBatchRequest(frame, n); err != nil {
			derr = err
		}
	})
	put("codec.binary_decode_us_per_item", ns/1e3/float64(n), "us")
	var buf []byte
	ns = timeLoop(20, 200, func(int) { buf = server.AppendBinaryBatchResponse(buf[:0], results[:n]) })
	put("codec.binary_encode_us_per_item", ns/1e3/float64(n), "us")
	return derr
}

// coreDrills times the admission core by direct calls on a daemon
// configured and warmed like the workload's, without and with a WAL.
func coreDrills(w *workloadSpec, seed int64, dir string, put func(string, float64, string)) (*stack, error) {
	bare := *w
	bare.wal = false
	t, d, err := setup(&bare, topoSingle, seed, dir, nil, w.warmup)
	if err != nil {
		return nil, err
	}
	srv := t.nodes[0].srv
	vols := d.vols
	// Draws and keys are made before the clock starts; the timed call
	// only stamps the request with the advanced virtual instant.
	type prepared struct {
		dr  reqDraw
		key string
	}
	pre := make([]prepared, drillN)
	for i := range pre {
		r := opStream(seed, phaseDrill, 1_000_000+i)
		pre[i] = prepared{w.drawRequest(&r, vols), idemKey(seed, phaseDrill, 1_000_000, i)}
	}
	j := drillN
	var derr error
	accepted := make([]request.ID, 0, drillN)
	keys := make([]server.Submission, 0, drillN)
	m0 := mallocs()
	ns := timeLoop(20, drillN/20, func(i int) {
		now := t.clock.advance(pre[i].dr.gap)
		sub := submissionOf(pre[i].dr.wireRequest(now, pre[i].key, false))
		dec, err := srv.Submit(sub)
		if err != nil {
			derr = err
			return
		}
		if dec.Accepted {
			accepted = append(accepted, dec.ID)
		}
		keys = append(keys, sub)
	})
	put("core.submit_us", ns/1e3, "us")
	put("core.allocs_per_submit", float64(mallocs()-m0)/drillN, "count")

	batch := make([]server.Submission, w.batchSize)
	ns = timeLoop(20, 10, func(int) {
		gap := 0.0
		for k := range batch {
			r := opStream(seed, phaseDrill, 2_000_000+j)
			dr := w.drawRequest(&r, vols)
			gap += dr.gap
			batch[k] = submissionOf(dr.wireRequest(0, idemKey(seed, phaseDrill, 2_000_000+j, k), false))
			j++
		}
		now := units.Time(t.clock.advance(gap))
		for k := range batch {
			batch[k].NotBefore += now
			batch[k].Deadline += now
		}
		if _, err := srv.SubmitBatch(batch); err != nil {
			derr = err
		}
	})
	put("core.batch_us_per_item", ns/1e3/float64(w.batchSize), "us")

	ns = timeLoop(20, 50, func(i int) {
		if _, err := srv.Submit(keys[len(keys)-1-i%256]); err != nil {
			derr = err
		}
	})
	put("core.idem_hit_us", ns/1e3, "us")
	if len(accepted) == 0 {
		t.close()
		return nil, fmt.Errorf("core drill: nothing accepted")
	}
	ns = timeLoop(20, 50, func(i int) {
		if _, err := srv.Lookup(accepted[len(accepted)-1-i%len(accepted)]); err != nil && err != server.ErrNotFound {
			derr = err
		}
	})
	put("core.lookup_us", ns/1e3, "us")
	// Cancel the newest grants: each is cancelled once; one that expired
	// in the meantime answers ErrFinished or ErrNotFound at the same cost.
	nc := len(accepted)
	if nc > 400 {
		nc = 400
	}
	ns = timeLoop(nc/20, 20, func(i int) {
		_, err := srv.Cancel(accepted[len(accepted)-1-i])
		if err != nil && err != server.ErrFinished && err != server.ErrNotFound {
			derr = err
		}
	})
	put("core.cancel_us", ns/1e3, "us")

	// Two goroutines against one: on disjoint pairs only the small global
	// section is shared; on the same pair the shard locks serialize too;
	// on the workload's own random pairs the shard counters say how often
	// a lock was actually waited for.
	const (
		pairsDisjoint = iota
		pairsSame
		pairsRandom
	)
	rate := func(workers, pairs int) float64 {
		const per = 4000
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					r := opStream(seed, phaseDrill, 3_000_000+g*per+k)
					dr := w.drawRequest(&r, vols)
					switch pairs {
					case pairsDisjoint:
						dr.from, dr.to = g, g
					case pairsSame:
						dr.from, dr.to = 0, 0
					}
					now := t.clock.advance(dr.gap)
					if _, err := srv.Submit(submissionOf(dr.wireRequest(now, "", false))); err != nil {
						derr = err
					}
				}
			}(g)
		}
		wg.Wait()
		return float64(workers*per) / time.Since(t0).Seconds()
	}
	put("core.parallel_speedup", rate(2, pairsDisjoint)/rate(1, pairsDisjoint), "ratio")
	put("core.same_pair_speedup", rate(2, pairsSame)/rate(1, pairsSame), "ratio")
	lockTraffic := func() (locks, contended uint64) {
		for _, st := range srv.ShardStats() {
			locks += st.Locks
			contended += st.Contended
		}
		return
	}
	l0, c0 := lockTraffic()
	rate(2, pairsRandom)
	l1, c1 := lockTraffic()
	put("alloc.lock_contended_share", float64(c1-c0)/float64(l1-l0), "ratio")
	if derr != nil {
		t.close()
		return nil, derr
	}

	// The same single submits with the workload's WAL in the path.
	logged := *w
	logged.wal = true
	tw, _, err := setup(&logged, topoSingle, seed, dir+"-wal", nil, w.warmup/8)
	if err != nil {
		t.close()
		return nil, err
	}
	defer tw.removeDirs()
	defer tw.close()
	ns = timeLoop(20, 20, func(int) {
		r := opStream(seed, phaseDrill, 4_000_000+j)
		j++
		dr := w.drawRequest(&r, vols)
		now := tw.clock.advance(dr.gap)
		if _, err := tw.nodes[0].srv.Submit(submissionOf(dr.wireRequest(now, "", false))); err != nil {
			derr = err
		}
	})
	put("core.submit_wal_us", ns/1e3, "us")
	return t, derr
}

// allocDrills rebuilds a sharded ledger from the warmed daemon's live
// grants and times the profile operations over the workload's windows.
func allocDrills(w *workloadSpec, seed int64, t *stack, put func(string, float64, string)) error {
	srv := t.nodes[0].srv
	net := srv.Network()
	ledger := alloc.NewSharded(net)
	live := srv.LiveReservations()
	for _, r := range live {
		if err := ledger.Reserve(r.Req, r.Grant); err != nil {
			return fmt.Errorf("alloc drill: rebuild: %w", err)
		}
	}
	now := t.clock.seconds()
	draws := drillDraws(w, seed, 1024)
	// Single-threaded from here on: the drill keeps the profile handles
	// and drops the locks.
	profiles := make([]*alloc.Profile, 0, 2*w.points)
	for i := 0; i < w.points; i++ {
		p := ledger.Pair(topology.PointID(i), topology.PointID(i))
		profiles = append(profiles, p.Ingress(), p.Egress())
		p.Unlock()
	}
	bp := 0
	for _, p := range profiles {
		bp += p.Breakpoints()
	}
	put("alloc.breakpoints_per_profile", float64(bp)/float64(len(profiles)), "count")
	span := func(i int, ahead float64) (*alloc.Profile, units.Time, units.Time, units.Bandwidth) {
		d := draws[i%len(draws)]
		t0 := now + ahead
		return profiles[(2*d.from+i)%len(profiles)], units.Time(t0), units.Time(t0 + 2*d.volume/d.maxRate), units.Bandwidth(d.maxRate / 2)
	}
	var sink units.Bandwidth
	ns := timeLoop(20, 500, func(i int) {
		p, t0, t1, _ := span(i, 0)
		sink += p.MaxUsedIn(t0, t1)
	})
	put("alloc.max_used_ns", ns, "ns")
	ns = timeLoop(20, 500, func(i int) {
		p, t0, t1, _ := span(i, 2*ringSpan)
		sink += p.MaxUsedIn(t0, t1)
	})
	put("alloc.max_used_far_ns", ns, "ns")
	fits := 0
	ns = timeLoop(20, 500, func(i int) {
		p, t0, t1, bw := span(i, 0)
		if p.Fits(t0, t1, bw) {
			fits++
		}
	})
	put("alloc.fits_ns", ns, "ns")
	ns = timeLoop(20, 500, func(i int) {
		p, t0, t1, _ := span(i, 0)
		// A sliver of bandwidth always fits; the pair leaves the profile
		// as it found it.
		if err := p.Reserve(t0, t1, 1); err == nil {
			p.Release(t0, t1, 1)
		}
	})
	put("alloc.reserve_release_ns", ns, "ns")
	ns = timeLoop(20, 200, func(i int) {
		p, t0, t1, bw := span(i, 0)
		if _, ok := p.EarliestFit(t0, t0+4*(t1-t0), t1-t0, bw); ok {
			fits++
		}
	})
	put("alloc.earliest_fit_ns", ns, "ns")
	_ = sink

	pol, err := core.ParsePolicy(w.policy)
	if err != nil {
		return err
	}
	reqs := make([]request.Request, len(draws))
	for i, d := range draws {
		reqs[i] = request.Request{
			ID: request.ID(i), Ingress: topology.PointID(d.from), Egress: topology.PointID(d.to),
			Start: units.Time(now), Finish: units.Time(now + d.window), Volume: units.Volume(d.volume), MaxRate: units.Bandwidth(d.maxRate),
		}
	}
	var perr error
	ns = timeLoop(20, 1000, func(i int) {
		r := reqs[i%len(reqs)]
		if _, err := pol.Assign(r, r.Start); err != nil {
			perr = err
		}
	})
	put("policy.assign_ns", ns, "ns")
	return perr
}

// walDrills times the log by itself: Append under the interval policy the
// workloads run with and under fsync=always, which no workload pays (the
// sandbox's fsync time drifts by tens of percent within the hour, too
// much for a bounded end-to-end metric), and reading the records back.
func walDrills(dir string, put func(string, float64, string)) error {
	// A decision event is ~220 bytes of JSON on the wire and in the log.
	payload := make([]byte, 220)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	var derr error
	appendUs := func(sub string, policy wal.SyncPolicy) (*wal.Log, float64, error) {
		l, _, err := wal.Open(filepath.Join(dir, sub), wal.Options{Policy: policy})
		if err != nil {
			return nil, 0, err
		}
		ns := timeLoop(20, 50, func(int) {
			if _, err := l.Append(payload); err != nil {
				derr = err
			}
		})
		return l, ns / 1e3, nil
	}
	l, us, err := appendUs("always", wal.SyncAlways)
	if err != nil {
		return err
	}
	l.Close()
	put("wal.append_fsync_us", us, "us")
	l, us, err = appendUs("interval", wal.SyncInterval)
	if err != nil {
		return err
	}
	defer l.Close()
	put("wal.append_direct_us", us, "us")
	records := 0
	t0 := time.Now()
	pos := wal.Pos{}
	for {
		payloads, _, next, err := l.ReadFrom(pos, 512, 1<<20)
		if err != nil {
			return err
		}
		if len(payloads) == 0 {
			break
		}
		records += len(payloads)
		pos = next
	}
	if records == 0 {
		return fmt.Errorf("wal drill: read nothing back")
	}
	put("wal.read_from_us_per_record", float64(time.Since(t0).Microseconds())/float64(records), "us")
	return derr
}

// recoverDrill times wal.Open on the directory a pass left behind.
func recoverDrill(dir string) (float64, error) {
	t0 := time.Now()
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return 0, err
	}
	s := time.Since(t0).Seconds()
	return s, l.Close()
}

// ringDrill times the router's ownership lookups.
func ringDrill(w *workloadSpec, put func(string, float64, string)) error {
	ring, err := router.NewRing([]string{"s0", "s1"}, 1, 0)
	if err != nil {
		return err
	}
	sink := 0
	ns := timeLoop(20, 1000, func(i int) {
		sink += ring.OwnerIn(i%w.points) + ring.OwnerEg((i/w.points)%w.points)
	})
	_ = sink
	put("router.ring_owner_ns", ns/2, "ns")
	return nil
}

// schedDrill runs the workload's submit trace through the paper's GREEDY
// (sched/flexible, the simulator's admission) and serially through a
// fresh daemon, and reports how far their accept rates are apart.
func schedDrill(w *workloadSpec, seed int64, dir string, put func(string, float64, string)) error {
	const n = 4000
	draws := drillDraws(w, seed, n)
	reqs := make([]request.Request, n)
	at := 0.0
	for i, d := range draws {
		at += d.gap
		reqs[i] = request.Request{
			ID: request.ID(i), Ingress: topology.PointID(d.from), Egress: topology.PointID(d.to),
			Start: units.Time(at), Finish: units.Time(at + d.window), Volume: units.Volume(d.volume), MaxRate: units.Bandwidth(d.maxRate),
		}
	}
	set, err := request.NewSet(reqs)
	if err != nil {
		return err
	}
	pol, err := core.ParsePolicy(w.policy)
	if err != nil {
		return err
	}
	net := topology.Uniform(w.points, w.points, w.capacity)
	t0 := time.Now()
	out, err := flexible.Greedy{Policy: pol}.Schedule(net, set)
	if err != nil {
		return err
	}
	put("sched.greedy_ns_per_request", float64(time.Since(t0).Nanoseconds())/n, "ns")

	bare := *w
	bare.wal = false
	t, err := boot(&bare, topoSingle, filepath.Join(dir, "sched"), nil)
	if err != nil {
		return err
	}
	defer t.close()
	accepted := 0
	for _, r := range reqs {
		t.clock.ns.Store(int64(float64(r.Start) * 1e9))
		dec, err := t.nodes[0].srv.Submit(server.Submission{
			From: int(r.Ingress), To: int(r.Egress), Volume: r.Volume, MaxRate: r.MaxRate,
			NotBefore: r.Start, Deadline: r.Finish,
		})
		if err != nil {
			return err
		}
		if dec.Accepted {
			accepted++
		}
	}
	gap := float64(accepted)/n - out.AcceptRate()
	if gap < 0 {
		gap = -gap
	}
	put("sched.accept_rate_gap", gap, "ratio")
	return nil
}
