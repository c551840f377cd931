package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/server/client"
)

// The traced pass. One client drives ~3000 operations in a closed loop
// against the workload's topology wired with every interposer; spans are
// kept in memory and written to out/trace-<workload>.jsonl. Layers the
// workload's own topology lacks (a WAL, a router, a quorum group) are
// measured the same way on an auxiliary topology carrying the workload's
// platform and traffic, so every per-layer metric exists on every
// workload.

// Pass sizes in operations; variables so the smoke test can shrink them.
var (
	traceOps    = 3000
	auxTraceOps = 1200
)

// traceChunk is how many operations the traced and the untraced pass drive
// in turn.
const traceChunk = 300

const directOps = 300

// pass is one traced (or untraced) closed-loop pass over a topology of
// its own, and what it left behind.
type pass struct {
	kind     topoKind
	spec     workloadSpec
	t        *stack
	d        *driver
	tr       *tracer // nil on an untraced pass
	decided0 int64   // submissions the warm-up decided

	byOp    map[int32][]span
	recs    []opRec
	cnt     *counters
	decided int64 // fresh submissions decided
	// walDirs are the write-accepting daemons' WAL directories.
	walDirs      []string
	lag          []int64 // follower lag in records, sampled after every op
	syncDegraded uint64
	directUs     float64 // routed passes: median direct-to-shard submit
}

// startPass boots kind with the workload's platform and traffic and warms
// it up. traced selects the interposers.
func startPass(w *workloadSpec, kind topoKind, seed int64, dir string, warmup int, traced bool) (*pass, error) {
	p := &pass{kind: kind, spec: *w, cnt: &counters{}}
	switch kind {
	case topoQuorum:
		p.spec.wal, p.spec.durable = true, true
	case topoRouted:
		p.spec.wal, p.spec.durable = true, false
	default:
		p.spec.durable = false
	}
	var hooks *traceHooks
	if traced {
		p.tr = newTracer()
		hooks = &traceHooks{tr: p.tr, cnt: p.cnt}
	}
	t, d, err := setup(&p.spec, kind, seed, dir, hooks, warmup)
	if err != nil {
		return nil, err
	}
	p.t, p.d = t, d
	for _, n := range t.nodes {
		if n.walDir != "" {
			p.walDirs = append(p.walDirs, n.walDir)
		}
	}
	p.cnt.reset()
	p.decided0 = d.decided
	if traced {
		d.tr = p.tr
		p.tr.on.Store(true)
	}
	if kind == topoQuorum {
		d.afterOp = func() {
			head := t.nodes[0].wal.Records()
			worst := int64(0)
			for _, f := range t.follows {
				if l := int64(head) - int64(f.wal.Records()); l > worst {
					worst = l
				}
			}
			p.lag = append(p.lag, worst)
		}
	}
	return p, nil
}

// drive sends the pass's next n operations with one client; operation j of
// the pass is p.recs[j], and its spans carry j as their op.
func (p *pass) drive(n int) {
	recs := p.d.closedLoop(phaseTrace, 1, time.Hour, len(p.recs), n)
	p.recs = append(p.recs, recs[0]...)
}

// finish stops the recording, takes the pass's last measurements, runs the
// end-of-run checks (which close the topology) and folds their verdict
// into res.
func (p *pass) finish(seed int64, res *result) {
	p.decided = p.d.decided - p.decided0
	if p.tr != nil {
		p.tr.on.Store(false)
		p.byOp = p.tr.finish()
	}
	if p.kind == topoQuorum {
		p.syncDegraded = p.t.nodes[0].srv.Status().Stats.SyncDegraded
	}
	if p.kind == topoRouted {
		p.directUs = directSubmits(&p.spec, p.t, seed)
	}
	finalChecks(p.t, p.d)
	res.Failed += p.d.failed
	res.Failures = append(res.Failures, p.d.failures...)
	res.Attempted += int64(len(p.recs))
}

// directSubmits sends same-shard submits straight to their owning shard,
// no router in the path — the baseline the routing tax is a ratio of.
func directSubmits(w *workloadSpec, t *stack, seed int64) float64 {
	ring := t.rt.Ring()
	vols := w.volumes()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	clients := make([]*client.Client, len(t.nodes))
	for i, n := range t.nodes {
		clients[i] = client.NewWithOptions(n.url, hc, client.Options{})
	}
	ctx := context.Background()
	var lat []int64
	for j := 0; len(lat) < directOps && j < 100*directOps; j++ {
		r := opStream(seed, phaseDrill, 5_000_000+j)
		dr := w.drawRequest(&r, vols)
		owner := ring.OwnerIn(dr.from)
		if owner != ring.OwnerEg(dr.to) {
			continue
		}
		now := t.clock.advance(dr.gap)
		req := dr.wireRequest(now, idemKey(seed, phaseDrill, 5_000_000+j, 0), false)
		t0 := time.Now()
		if _, err := clients[owner].Submit(ctx, req); err != nil {
			continue
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	return medianInt(lat) / 1e3
}

// spansNamed filters one op's spans by name (and node, when non-empty).
func spansNamed(list []span, name, node string) []span {
	var out []span
	for _, s := range list {
		if s.Name == name && (node == "" || s.Node == node) {
			out = append(out, s)
		}
	}
	return out
}

func within(outer span, list []span) []span {
	var out []span
	for _, s := range list {
		if outer.Start <= s.Start && s.End <= outer.End {
			out = append(out, s)
		}
	}
	return out
}

func sumDur(list []span) int64 {
	var n int64
	for _, s := range list {
		n += s.dur()
	}
	return n
}

// stages is the latency budget of one traced single submit, in ns.
type stages struct {
	total                                            int64
	clientSelf, transport, handlerSelf, core         int64
	walWrite, fsync, ackWait, routerSelf, shardTrips int64
}

var stageNames = []string{"client self", "transport", "handler self", "core", "WAL write", "fsync", "ack wait", "router self", "shard trips"}

func (s stages) list() []int64 {
	return []int64{s.clientSelf, s.transport, s.handlerSelf, s.core, s.walWrite, s.fsync, s.ackWait, s.routerSelf, s.shardTrips}
}

// primaryNode reports whether a span's node is a write-accepting daemon.
func primaryNode(kind topoKind, node string) bool {
	if kind == topoQuorum {
		return node == "n0"
	}
	return node == "n0" || node == "s0" || node == "s1"
}

// budgetSubmit reports whether an op belongs to the class of submits the
// budget describes: fresh, admitted single submits, and behind a router
// the cross-shard ones. A refusal stops early (a cross-shard one after one
// or two of the four shard trips) and a same-shard routed submit makes one
// trip, so a mix of them has no median stage worth adding up.
func budgetSubmit(kind topoKind, rec opRec) bool {
	return rec.kind == opSubmit && !rec.failed && rec.accepted == 1 && (kind != topoRouted || rec.cross)
}

// submitStages splits every traced budget-class submit of a pass into its
// stages. coreNs is the core drill's per-submit time: the one stage no
// interposer can see from outside.
func submitStages(p *pass, coreNs int64) []stages {
	var out []stages
	for j, rec := range p.recs {
		if !budgetSubmit(p.kind, rec) {
			continue
		}
		list := p.byOp[int32(j)]
		cs := spansNamed(list, "client.submit", "")
		if len(cs) != 1 {
			continue
		}
		c := cs[0]
		st := stages{total: c.dur()}
		rts := within(c, spansNamed(list, "transport.roundtrip", ""))
		st.clientSelf = c.dur() - sumDur(rts)
		if p.kind == topoRouted {
			hs := within(c, spansNamed(list, "router.submit", ""))
			if len(hs) != 1 {
				continue
			}
			h := hs[0]
			st.transport = sumDur(rts) - h.dur()
			st.routerSelf = selfTime(h, spansNamed(list, "router.shardtrip", ""))
			st.shardTrips = h.dur() - st.routerSelf
		} else {
			hs := within(c, spansNamed(list, "http.submit", ""))
			if len(hs) != 1 {
				continue
			}
			h := hs[0]
			st.transport = sumDur(rts) - h.dur()
			writes := within(h, spansNamed(list, "wal.write", h.Node))
			syncs := within(h, spansNamed(list, "wal.sync", h.Node))
			st.walWrite, st.fsync = sumDur(writes), sumDur(syncs)
			if p.kind == topoQuorum {
				// What follows the op's last write or fsync on the primary
				// is the wait for a follower to pull and ack it.
				last := int64(0)
				for _, s := range append(writes, syncs...) {
					if s.End > last {
						last = s.End
					}
				}
				if last > 0 {
					st.ackWait = h.End - last
				}
			}
			st.core = coreNs
			st.handlerSelf = h.dur() - st.walWrite - st.fsync - st.ackWait - st.core
		}
		out = append(out, st)
	}
	return out
}

func medianOf(list []stages, f func(stages) int64) float64 {
	xs := make([]int64, len(list))
	for i, s := range list {
		xs[i] = f(s)
	}
	return medianInt(xs)
}

// spanMedianUs is the median duration of every span of a name on the
// nodes sel accepts, across the whole pass.
func spanMedianUs(p *pass, name string, sel func(node string) bool) float64 {
	var xs []int64
	for _, list := range p.byOp {
		for _, s := range list {
			if s.Name == name && (sel == nil || sel(s.Node)) {
				xs = append(xs, s.dur())
			}
		}
	}
	return medianInt(xs) / 1e3
}

// clientMedianUs is the median client-observed latency of one op kind.
func clientMedianUs(p *pass, kind opKind, sel func(opRec) bool) float64 {
	var xs []int64
	for _, r := range p.recs {
		if r.kind == kind && !r.failed && (sel == nil || sel(r)) {
			xs = append(xs, r.end-r.start)
		}
	}
	return medianInt(xs) / 1e3
}

// cannedTransport answers every request with one prepared body, so the
// client's own allocations can be counted with no server in the process.
type cannedTransport struct{ body []byte }

func (c cannedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body) // an in-memory reader cannot fail
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusCreated, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(bytes.NewReader(c.body)), Request: r,
	}, nil
}

func clientAllocDrill(w *workloadSpec, seed int64) float64 {
	body := []byte(`{"id":7,"accepted":true,"state":"active","rate_bps":5e7,"rate":"50MB/s","sigma_s":1000,"tau_s":1020}` + "\n")
	c := client.NewWithOptions("http://127.0.0.1:1", &http.Client{Transport: cannedTransport{body}}, client.Options{})
	draws := drillDraws(w, seed, 256)
	ctx := context.Background()
	const n = 2000
	reqs := make([]server.SubmitRequest, len(draws))
	for i, d := range draws {
		reqs[i] = d.wireRequest(1000, idemKey(seed, phaseDrill, 6_000_000, i), false)
	}
	m0 := mallocs()
	for i := 0; i < n; i++ {
		if _, err := c.Submit(ctx, reqs[i%len(reqs)]); err != nil {
			return 0
		}
	}
	return float64(mallocs()-m0) / n
}

// traceWorkload is the traced per-layer run of one workload: the per-layer
// metrics, plus the budget the human report and the gates need.
func traceWorkload(w *workloadSpec, seed int64, seconds float64, outDir string) (*result, error) {
	b := &budget{}
	res := &result{Workload: w.name, Seed: seed, Metrics: map[string]metric{}, Notes: map[string]string{}, Budget: b}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	base := filepath.Join(outDir, "tmp", fmt.Sprintf("%s-%d-trace", w.name, seed))

	// The workload's own topology twice, once with every interposer and
	// once with none, driven in alternating chunks of the same operations:
	// whatever the box does in the meantime, it does to both, so the
	// difference between their submit medians is the tracing overhead.
	own, err := startPass(w, w.topo, seed, base+"-own", w.warmup, true)
	if err != nil {
		return nil, err
	}
	defer own.t.removeDirs()
	plain, err := startPass(w, w.topo, seed, base+"-plain", w.warmup, false)
	if err != nil {
		return nil, err
	}
	defer plain.t.removeDirs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for len(own.recs) < traceOps {
		own.drive(traceChunk)
		plain.drive(traceChunk)
	}
	runtime.ReadMemStats(&ms1)
	put("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	put("runtime.gc_pause_total_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	put("runtime.heap_inuse_mb", float64(ms1.HeapInuse)/(1<<20), "MB")
	own.finish(seed, res)
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".jsonl"), own.byOp); err != nil {
		return nil, err
	}

	// A short open loop on the untraced topology: the demoted end-to-end
	// latencies and the generator's own numbers.
	openDur := seconds / 2
	if openDur > 8 {
		openDur = 8
	}
	due := schedule(seed, 0, w.openRate, openDur)
	open := plain.d.openLoop(phaseOpen, nClients, 0, due)
	ls := openLoopStats(open, due, openDur)
	put("submit_p99_us", float64(percentile(latencies(open, opSubmit, false), 99))/1e3, "us")
	put("batch_p99_us", float64(percentile(latencies(open, opBatch, false), 99))/1e3, "us")
	put("cancel_p50_us", float64(percentile(latencies(open, opCancel, false), 50))/1e3, "us")
	put("lookup_p50_us", float64(percentile(latencies(open, opLookup, false), 50))/1e3, "us")
	// And a short closed loop of both clients: what an admission costs in
	// CPU, the clients' share included.
	plain.d.afterOp = nil // the lag sampler is single-client
	c0 := rusageCPU()
	closed := plain.d.closedLoop(phaseClosed, nClients, time.Duration(openDur/4*float64(time.Second)), 0, 0)
	cpu := rusageCPU() - c0
	var decided, closedOps int64
	for _, list := range closed {
		closedOps += int64(len(list))
		for _, r := range list {
			if (r.kind == opSubmit || r.kind == opBatch) && !r.failed {
				decided += int64(r.items)
			}
		}
	}
	if decided == 0 {
		return nil, fmt.Errorf("closed loop decided nothing")
	}
	put("cpu_us_per_admit", float64(cpu.Microseconds())/float64(decided), "us")
	plain.finish(seed, res)
	res.Attempted += int64(len(due)) + closedOps
	put("loadgen.offered_per_s", ls.offered, "1/s")
	put("loadgen.achieved_per_s", ls.achieved, "1/s")
	put("loadgen.lateness_p99_us", ls.latenessP99us, "us")
	put("loadgen.backlog_max", float64(ls.backlogMax), "count")

	// Auxiliary topologies for the layers the own one lacks.
	passOf := map[topoKind]*pass{w.topo: own}
	var walPass *pass
	if w.wal {
		walPass = own
	}
	for _, kind := range []topoKind{topoSingle, topoRouted, topoQuorum} {
		if passOf[kind] != nil && (kind != topoSingle || walPass != nil) {
			continue
		}
		spec := *w
		if kind == topoSingle {
			spec.wal = true
		}
		warm := w.warmup / 4
		if warm > 4096 {
			warm = 4096
		}
		p, err := startPass(&spec, kind, seed, fmt.Sprintf("%s-aux-%s", base, kind), warm, true)
		if err != nil {
			return nil, fmt.Errorf("auxiliary %s pass: %w", kind, err)
		}
		defer p.t.removeDirs()
		p.drive(auxTraceOps)
		p.finish(seed, res)
		if kind == topoSingle {
			walPass = p
		} else {
			passOf[kind] = p
		}
	}
	if walPass == nil {
		walPass = passOf[topoRouted]
	}

	// Drills.
	if err := codecDrills(w, seed, put); err != nil {
		return nil, fmt.Errorf("codec drill: %w", err)
	}
	ct, err := coreDrills(w, seed, base+"-core", put)
	if err != nil {
		return nil, fmt.Errorf("core drill: %w", err)
	}
	err = allocDrills(w, seed, ct, put)
	ct.close()
	if err != nil {
		return nil, fmt.Errorf("alloc drill: %w", err)
	}
	walDrillDir := base + "-waldrill"
	err = walDrills(walDrillDir, put)
	os.RemoveAll(walDrillDir)
	if err != nil {
		return nil, fmt.Errorf("wal drill: %w", err)
	}
	if err := ringDrill(w, put); err != nil {
		return nil, err
	}
	if err := schedDrill(w, seed, base, put); err != nil {
		return nil, fmt.Errorf("sched drill: %w", err)
	}
	put("client.allocs_per_submit", clientAllocDrill(w, seed), "count")

	coreNs := int64(res.Metrics["core.submit_us"].Value * 1e3)

	// client / transport / http: the own pass.
	st := submitStages(own, coreNs)
	if len(st) == 0 {
		return nil, fmt.Errorf("traced pass has no complete submit")
	}
	put("client.submit_self_us", medianOf(st, func(s stages) int64 { return s.clientSelf })/1e3, "us")
	put("client.attempts_per_op", float64(own.cnt.roundTrips.Load())/float64(len(own.recs)), "count")
	put("transport.roundtrip_self_us", medianOf(st, func(s stages) int64 { return s.transport })/1e3, "us")
	put("transport.conns_opened", float64(own.cnt.conns.Load()), "count")
	daemon := func(node string) bool { return node != "rt" }
	put("http.submit_handler_us", spanMedianUs(own, "http.submit", daemon), "us")
	put("http.batch_handler_us", spanMedianUs(own, "http.batch", daemon), "us")
	put("http.cancel_handler_us", spanMedianUs(own, "http.cancel", daemon), "us")
	put("http.lookup_handler_us", spanMedianUs(own, "http.lookup", daemon), "us")
	// Behind the router the budget has no daemon handler stage; the
	// auxiliary single daemon carrying the same traffic has.
	hst := st
	if own.kind == topoRouted {
		hst = submitStages(walPass, coreNs)
	}
	put("http.handler_self_us", medianOf(hst, func(s stages) int64 { return s.handlerSelf })/1e3, "us")
	put("http.shed_429", float64(own.cnt.shed429.Load()), "count")

	// wal: the own pass when the workload has a WAL, else the auxiliary
	// single daemon with one.
	prim := func(node string) bool { return primaryNode(walPass.kind, node) }
	put("wal.append_us", spanMedianUs(walPass, "wal.write", prim), "us")
	put("wal.fsync_us", spanMedianUs(walPass, "wal.sync", prim), "us")
	put("wal.fsyncs_per_admit", float64(walPass.cnt.walSyncs.Load())/float64(walPass.decided), "count")
	put("wal.bytes_per_admit", float64(walPass.cnt.walBytes.Load())/float64(walPass.decided), "B")
	put("wal.records_per_admit", float64(walPass.cnt.events.Load())/float64(walPass.decided), "count")
	rs, err := recoverDrill(walPass.walDirs[0])
	if err != nil {
		return nil, fmt.Errorf("wal recover drill: %w", err)
	}
	put("wal.recover_s", rs, "s")

	// repl: the quorum pass.
	q := passOf[topoQuorum]
	qst := submitStages(q, coreNs)
	put("repl.ack_wait_us", medianOf(qst, func(s stages) int64 { return s.ackWait })/1e3, "us")
	put("repl.pulls_per_admit", float64(q.cnt.pulls.Load())/float64(q.decided), "count")
	put("repl.pull_bytes_per_admit", float64(q.cnt.pullBytes.Load())/float64(q.decided), "B")
	lag := append([]int64(nil), q.lag...)
	sort.Slice(lag, func(i, j int) bool { return lag[i] < lag[j] })
	put("repl.follower_lag_records_p99", float64(percentile(lag, 99)), "count")
	put("repl.follower_fsync_us", spanMedianUs(q, "wal.sync", func(n string) bool { return n == "n1" || n == "n2" }), "us")
	put("repl.sync_degraded", float64(q.syncDegraded), "count")
	b.QuorumSubmitUs = clientMedianUs(q, opSubmit, nil)

	// router / holds: the routed pass.
	r := passOf[topoRouted]
	rst := submitStages(r, coreNs)
	put("router.handler_self_us", medianOf(rst, func(s stages) int64 { return s.routerSelf })/1e3, "us")
	same := clientMedianUs(r, opSubmit, func(o opRec) bool { return !o.cross })
	cross := clientMedianUs(r, opSubmit, func(o opRec) bool { return o.cross })
	put("router.direct_us", r.directUs, "us")
	put("router.single_same_us", same, "us")
	put("router.single_cross_us", cross, "us")
	put("router.tax_same", same/r.directUs, "ratio")
	put("router.tax_cross", cross/r.directUs, "ratio")
	// Trips are counted inside the router's handler span and over
	// admitted submits: a refusal stops the hold protocol early, and the
	// aborts it triggers run detached, after the answer left.
	var tripsSame, tripsCross, nSame, nCross, admSame, admCross, tripsBatch, batchItems float64
	for j, rec := range r.recs {
		list := r.byOp[int32(j)]
		var trips float64
		for _, h := range list {
			if h.Name == "router.submit" || h.Name == "router.batch" {
				trips += float64(len(within(h, spansNamed(list, "router.shardtrip", ""))))
			}
		}
		switch {
		case rec.kind == opSubmit && rec.cross:
			nCross++
			if rec.accepted == 1 {
				tripsCross += trips
				admCross++
			}
		case rec.kind == opSubmit:
			nSame++
			if rec.accepted == 1 {
				tripsSame += trips
				admSame++
			}
		case rec.kind == opBatch:
			tripsBatch += trips
			batchItems += float64(rec.items)
		}
	}
	put("router.shard_trips_per_submit_same", tripsSame/admSame, "count")
	put("router.shard_trips_per_submit_cross", tripsCross/admCross, "count")
	put("router.shard_trips_per_batch_item", tripsBatch/batchItems, "count")
	put("router.cross_share", nCross/(nSame+nCross), "ratio")
	put("router.hold_aborts", float64(r.cnt.holdAborts.Load()), "count")
	put("holds.reserve_us", spanMedianUs(r, "http.reserve", nil), "us")
	put("holds.confirm_us", spanMedianUs(r, "http.confirm", nil), "us")

	// The budget of the workload's own admitted single submit.
	b.SubmitUs = medianOf(st, func(s stages) int64 { return s.total }) / 1e3
	sum := 0.0
	for i := range stageNames {
		i := i
		m := medianOf(st, func(s stages) int64 { return s.list()[i] }) / 1e3
		b.Stages = append(b.Stages, m)
		sum += m
	}
	b.Residual = math.Abs(b.SubmitUs-sum) / b.SubmitUs
	plainSubmit := clientMedianUs(plain, opSubmit, func(o opRec) bool { return budgetSubmit(plain.kind, o) })
	b.Overhead = (b.SubmitUs - plainSubmit) / plainSubmit
	put("budget.residual_share", b.Residual, "ratio")
	put("trace.overhead_share", b.Overhead, "ratio")
	put("trace.submit_median_us", b.SubmitUs, "us")
	put("trace.batch_median_us", clientMedianUs(own, opBatch, nil), "us")
	put("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio")

	res.Correct = res.Failed == 0
	res.Notes["spans"] = filepath.Join(outDir, "trace-"+w.name+".jsonl")
	return res, nil
}

// table renders the per-stage table of the traced submit.
func (b *budget) table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-14s %10s\n", "stage", "median us")
	for i, name := range stageNames {
		fmt.Fprintf(&sb, "  %-14s %10.2f\n", name, b.Stages[i])
	}
	fmt.Fprintf(&sb, "  %-14s %10.2f   (traced end-to-end submit median; residual %.1f%%, tracing overhead %.1f%%)\n",
		"submit", b.SubmitUs, 100*b.Residual, 100*b.Overhead)
	return sb.String()
}
