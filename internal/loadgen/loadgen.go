// Package loadgen is an open-loop scaletest harness for gridbwd: it
// drives a running daemon (or failover pair) with thousands of concurrent
// virtual users paced by the arrival processes of internal/workload.
//
// The defining property is the open loop. Arrivals fire on a schedule
// that is a pure function of (seed, ramp profile) and never of responses:
// a stalled daemon cannot slow the offered rate down, so the measured
// latency distribution reflects what clients would actually experience —
// the coordinated-omission trap of closed-loop harnesses (each virtual
// user politely waiting for its previous response before sending the
// next) is structurally impossible. When every virtual user is busy at an
// arrival instant the arrival is dropped and counted, never deferred.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gridbw/internal/check"
	"gridbw/internal/rng"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
	"gridbw/internal/wire"
	"gridbw/internal/workload"
)

// Backend is the surface of server/client the harness drives; a seam so
// tests can substitute a fake daemon with scripted behavior.
type Backend interface {
	Submit(ctx context.Context, req wire.SubmitRequest) (wire.ReservationJSON, error)
	SubmitBatch(ctx context.Context, reqs []wire.SubmitRequest) ([]wire.BatchItemJSON, error)
	Cancel(ctx context.Context, id int) (wire.ReservationJSON, error)
}

// Mix sets the relative weights of the operation types; weights need not
// sum to anything particular.
type Mix struct {
	Submit int `json:"submit"`
	Cancel int `json:"cancel"`
	Batch  int `json:"batch"`
	// BatchSize is the number of submissions per batch operation.
	BatchSize int `json:"batch_size"`
}

func (m Mix) total() int { return m.Submit + m.Cancel + m.Batch }

// Config describes one scaletest run. Zero fields take the documented
// defaults.
type Config struct {
	// Targets are the daemon base URLs; the first is primary, the rest
	// failover fallbacks. Ignored when Backend is set.
	Targets []string
	// VUs caps concurrency: the number of virtual users. An arrival that
	// fires while all VUs are busy is dropped (open loop), not queued.
	VUs int
	// Phases is the ramp profile; see Ramp for the standard shape.
	Phases []Phase
	// Burst, when non-nil, replaces Poisson arrivals with the on/off
	// modulated process of workload.BurstConfig.
	Burst *workload.BurstConfig
	// Mix weights the operation types. Default 90% submit, 5% cancel,
	// 5% batch of 8.
	Mix Mix
	// Timeout is the per-request deadline. Default 5s.
	Timeout time.Duration
	// Retries is the number of extra attempts after a transport-level
	// failure. Every attempt re-sends the same idempotency key, so a
	// submit that actually landed before the connection broke is
	// deduplicated by the daemon rather than double-admitted; such
	// late-confirmed admissions are counted as "deduped", never
	// "admitted". Default 2; negative disables.
	Retries int
	// Seed makes the arrival schedule and every request draw
	// reproducible.
	Seed int64
	// NumIngress and NumEgress bound the uniform placement draw; they
	// must match the daemon's topology. Default 2×2 (the gridbwd
	// default).
	NumIngress, NumEgress int
	// Volumes is the volume ladder; default workload.PaperVolumes.
	Volumes []units.Volume
	// RateMin and RateMax bound the uniform host-rate draw; default
	// 10 MB/s … 1 GB/s (§5.3).
	RateMin, RateMax units.Bandwidth
	// Slack stretches request deadlines: deadline = Slack × vol/maxRate
	// from now. Default 2.
	Slack float64
	// FailOn is an optional regression gate; see ParseGate.
	FailOn string
	// PromAddr, when non-empty, serves live Prometheus text on
	// addr/metrics and the in-progress JSON report on addr/report for the
	// duration of the run. ":0" picks a free port (reported in the
	// Report).
	PromAddr string
	// HTTPClient overrides the transport used to reach Targets; nil uses
	// one tuned for many concurrent connections.
	HTTPClient *http.Client
	// Backend substitutes the daemon client entirely (tests).
	Backend Backend
	// DrainTimeout bounds the wait for in-flight requests after the last
	// arrival. Default 30s.
	DrainTimeout time.Duration
	// History, when non-nil, records every client-observed operation for
	// offline invariant checking (internal/check): what each submit and
	// cancel was answered, under which idempotency key. The recorder is
	// concurrency-safe; the caller persists it after Run returns.
	History *check.Recorder
	// Durable marks every generated submission durable: the daemon parks
	// the ack until the decision's WAL frame is replicated, and the
	// response's durability field becomes a checkable promise.
	Durable bool

	// Now and SleepUntil are clock seams; tests install a deterministic
	// clock. Defaults use the real clock.
	Now        func() time.Time
	SleepUntil func(ctx context.Context, t time.Time) error
}

func (c Config) withDefaults() Config {
	if c.VUs == 0 {
		c.VUs = 1000
	}
	if c.Mix.total() == 0 {
		c.Mix = Mix{Submit: 90, Cancel: 5, Batch: 5}
	}
	if c.Mix.BatchSize <= 0 {
		c.Mix.BatchSize = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.NumIngress <= 0 {
		c.NumIngress = 2
	}
	if c.NumEgress <= 0 {
		c.NumEgress = 2
	}
	if len(c.Volumes) == 0 {
		c.Volumes = workload.PaperVolumes()
	}
	if c.RateMin <= 0 {
		c.RateMin = 10 * units.MBps
	}
	if c.RateMax <= 0 {
		c.RateMax = 1 * units.GBps
	}
	if c.Slack <= 0 {
		c.Slack = 2
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.SleepUntil == nil {
		c.SleepUntil = func(ctx context.Context, t time.Time) error {
			d := time.Until(t)
			if d <= 0 {
				return ctx.Err()
			}
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
				return nil
			}
		}
	}
	return c
}

// newBackend builds the failover-aware daemon client. The client's own
// retry and timeout machinery is disabled: the harness owns both (one
// idempotency key per logical submission across its retries, one deadline
// per operation), and double-layered retries would blur the latency
// attribution. Failover re-discovery still works — it triggers inside
// each attempt.
func (c Config) newBackend() (Backend, error) {
	if c.Backend != nil {
		return c.Backend, nil
	}
	if len(c.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets and no backend")
	}
	hc := c.HTTPClient
	if hc == nil {
		tr := &http.Transport{
			MaxIdleConns:        c.VUs + 64,
			MaxIdleConnsPerHost: c.VUs + 64,
			IdleConnTimeout:     90 * time.Second,
		}
		hc = &http.Client{Transport: tr}
	}
	return client.NewWithOptions(c.Targets[0], hc,
		client.Options{MaxRetries: -1, CallTimeout: -1}, c.Targets[1:]...), nil
}

// opKind is what one arrival does.
type opKind int

const (
	opSubmit opKind = iota
	opCancel
	opBatch
)

// op is one scheduled operation, fully drawn in the dispatcher so the
// request stream is a deterministic function of the seed regardless of
// goroutine interleaving.
type op struct {
	kind  opKind
	phase int
	t0    time.Time
	reqs  []wire.SubmitRequest
}

// Run executes the configured scaletest and returns its report. The
// returned error covers harness failures (bad config, dead listener);
// daemon misbehavior lands in the report's outcome counters, and gate
// violations land in Report.Gate, not the error.
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.VUs < 1 {
		return Report{}, fmt.Errorf("loadgen: need at least one virtual user")
	}
	var gate *Gate
	if cfg.FailOn != "" {
		var err error
		if gate, err = ParseGate(cfg.FailOn); err != nil {
			return Report{}, err
		}
	}
	backend, err := cfg.newBackend()
	if err != nil {
		return Report{}, err
	}
	// Unit-mean arrivals: instants are cumulative expected-arrival counts
	// that the pacer warps onto the ramp profile.
	arr, err := workload.NewArrivals(cfg.Seed, 1, cfg.Burst)
	if err != nil {
		return Report{}, err
	}
	pc, err := newPacer(cfg.Phases, arr)
	if err != nil {
		return Report{}, err
	}

	rec := newRecorder(cfg.Phases, cfg.VUs)
	start := cfg.Now()
	rep := func() Report {
		r := rec.buildReport(cfg.Now().Sub(start))
		r.Targets, r.VUs, r.Seed = cfg.Targets, cfg.VUs, cfg.Seed
		return r
	}
	var promAddr string
	if cfg.PromAddr != "" {
		addr, stop, err := rec.serveProm(cfg.PromAddr, rep)
		if err != nil {
			return Report{}, err
		}
		promAddr = addr
		defer stop()
	}

	// One random key per run namespaces the per-arrival idempotency keys,
	// so repeated runs against one daemon never collide in its dedup
	// window.
	runID := client.NewIdempotencyKey()
	root := rng.New(cfg.Seed)
	draws := &drawState{
		mix:       root.Split("mix"),
		volumes:   root.Split("volumes"),
		rates:     root.Split("rates"),
		placement: root.Split("placement"),
		ring:      newIDRing(4096, root.Split("ring")),
		cfg:       cfg,
		runID:     runID,
	}

	slots := make(chan struct{}, cfg.VUs)
	var wg sync.WaitGroup
	interrupted := false
	for {
		off, phase, ok := pc.Next()
		if !ok {
			break
		}
		if err := cfg.SleepUntil(ctx, start.Add(off)); err != nil {
			interrupted = true
			break
		}
		rec.arrival(phase)
		o := draws.draw(phase, cfg.Now())
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				execute(ctx, cfg, backend, rec, draws.ring, o)
			}()
		default:
			// Open loop: never wait for a free virtual user.
			rec.count(phase, OutDropped)
		}
	}

	// Drain, bounded: a hung daemon must not hang the report.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(cfg.DrainTimeout):
	case <-ctx.Done():
		interrupted = true
		select {
		case <-drained:
		case <-time.After(cfg.Timeout):
		}
	}

	out := rep()
	out.Interrupted = interrupted
	out.PromAddr = promAddr
	if gate != nil {
		g := gate.Evaluate(out.Total)
		out.Gate = &g
	}
	return out, nil
}

// drawState holds the rng splits the dispatcher draws requests from.
type drawState struct {
	mix       *rng.Source
	volumes   *rng.Source
	rates     *rng.Source
	placement *rng.Source
	ring      *idRing
	cfg       Config
	runID     string
	arrivals  int
}

func (d *drawState) draw(phase int, t0 time.Time) op {
	idx := d.arrivals
	d.arrivals++
	o := op{phase: phase, t0: t0}
	pick := d.mix.Intn(d.cfg.Mix.total())
	switch {
	case pick < d.cfg.Mix.Submit:
		o.kind = opSubmit
		o.reqs = []wire.SubmitRequest{d.submitReq(fmt.Sprintf("%s-%d", d.runID, idx))}
	case pick < d.cfg.Mix.Submit+d.cfg.Mix.Cancel:
		o.kind = opCancel
	default:
		o.kind = opBatch
		for j := 0; j < d.cfg.Mix.BatchSize; j++ {
			o.reqs = append(o.reqs, d.submitReq(fmt.Sprintf("%s-%d-%d", d.runID, idx, j)))
		}
	}
	return o
}

func (d *drawState) submitReq(key string) wire.SubmitRequest {
	vol := rng.Choice(d.volumes, d.cfg.Volumes)
	rate := units.Bandwidth(d.rates.Uniform(float64(d.cfg.RateMin), float64(d.cfg.RateMax)))
	deadline := d.cfg.Slack * float64(vol) / float64(rate)
	return wire.SubmitRequest{
		From:           d.placement.Intn(d.cfg.NumIngress),
		To:             d.placement.Intn(d.cfg.NumEgress),
		VolumeBytes:    float64(vol),
		MaxRateBps:     float64(rate),
		DeadlineIn:     fmt.Sprintf("%.3fs", deadline),
		IdempotencyKey: key,
		Durable:        d.cfg.Durable,
	}
}

// history records a client-observed operation when recording is on.
func (c Config) history(op check.Op) {
	if c.History != nil {
		c.History.Record(op)
	}
}

// submitOp translates one submit exchange into the checker's vocabulary.
func submitOp(req wire.SubmitRequest, res wire.ReservationJSON, err error) check.Op {
	op := check.Op{
		Kind: check.OpSubmit, Key: req.IdempotencyKey,
		Ingress: req.From, Egress: req.To,
		VolumeB: req.VolumeBytes, Durable: req.Durable,
	}
	if err != nil {
		op.Err = err.Error()
		return op
	}
	op.ID, op.Accepted, op.Durability = res.ID, res.Accepted, res.Durability
	op.RateBps, op.SigmaS, op.TauS = res.RateBps, res.SigmaS, res.TauS
	op.Routed = res.Routed
	return op
}

// execute runs one operation to a classified outcome.
func execute(ctx context.Context, cfg Config, backend Backend, rec *Recorder, ring *idRing, o op) {
	rec.inflight.Add(1)
	defer rec.inflight.Add(-1)
	opCtx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()

	if o.kind == opCancel {
		executeCancel(opCtx, cfg, backend, rec, ring, o)
	} else {
		executeSubmit(opCtx, cfg, backend, rec, ring, o)
	}
}

func executeCancel(ctx context.Context, cfg Config, backend Backend, rec *Recorder, ring *idRing, o op) {
	id, ok := ring.pop()
	if !ok {
		// Nothing admitted yet to revoke; no wire call, no latency sample.
		rec.count(o.phase, OutCancelNoop)
		return
	}
	_, err := backend.Cancel(ctx, id)
	cop := check.Op{Kind: check.OpCancel, ID: id}
	if err != nil {
		cop.Err = err.Error()
	}
	cfg.history(cop)
	rec.latency(o.phase, cfg.Now().Sub(o.t0))
	switch {
	case err == nil, client.IsConflict(err):
		// 409 means the transfer already finished — equally gone.
		rec.count(o.phase, OutCancelled)
	case client.IsNotFound(err):
		rec.count(o.phase, OutCancelNoop)
	default:
		out, _ := classify(ctx, err)
		rec.count(o.phase, out)
	}
}

// executeSubmit runs a single submit, or a batch, to one classified
// outcome per submission: a single submit is a batch of one that is not
// sent as one. A failed call fails every submission in it, and a retry
// re-sends the same idempotency keys, by construction. A grant after a
// retry is one logical admission the daemon may have answered from its
// idempotency cache, recorded once, here.
func executeSubmit(ctx context.Context, cfg Config, backend Backend, rec *Recorder, ring *idRing, o op) {
	call := func() ([]wire.BatchItemJSON, error) {
		if o.kind == opBatch {
			return backend.SubmitBatch(ctx, o.reqs)
		}
		res, err := backend.Submit(ctx, o.reqs[0])
		return []wire.BatchItemJSON{{Reservation: &res}}, err
	}
	for attempt := 0; ; attempt++ {
		items, err := call()
		if err != nil {
			out, retryable := classify(ctx, err)
			if retryable && attempt < cfg.Retries {
				continue
			}
			rec.latency(o.phase, cfg.Now().Sub(o.t0))
			for _, r := range o.reqs {
				cfg.history(submitOp(r, wire.ReservationJSON{}, err))
				rec.count(o.phase, out)
			}
			return
		}
		lat := cfg.Now().Sub(o.t0)
		rec.latency(o.phase, lat)
		for i, it := range items {
			res := it.Reservation
			switch {
			case res == nil:
				if it.Error != "" {
					cfg.history(submitOp(o.reqs[i], wire.ReservationJSON{}, errors.New(it.Error)))
				}
				rec.count(o.phase, OutError)
				continue
			case res.Routed == wire.RoutedCrossShard:
				rec.crossShard(o.phase, lat)
			}
			cfg.history(submitOp(o.reqs[i], *res, nil))
			switch {
			case !res.Accepted:
				rec.count(o.phase, OutRejected)
			case attempt > 0:
				ring.push(res.ID)
				rec.count(o.phase, OutDeduped)
			default:
				ring.push(res.ID)
				rec.count(o.phase, OutAdmitted)
			}
		}
		return
	}
}

// classify maps an operation error to an outcome and whether the harness
// should burn a retry on it. Only transport-level failures are retried:
// those are the ones where the request may or may not have landed, which
// is exactly what the stable idempotency key exists for.
func classify(ctx context.Context, err error) (Outcome, bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
		return OutTimeout, false
	case client.IsOverloaded(err):
		return OutShed, false
	}
	var ae *client.APIError
	if !errors.As(err, &ae) {
		return OutTransport, true
	}
	return OutError, false
}
