package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gridbw/internal/check"
	"gridbw/internal/wire"
)

// fakeClock satisfies the Now/SleepUntil seams: SleepUntil teleports to
// the requested instant and records it, so a test sees exactly when the
// schedule fired without any real waiting.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	fires []time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(ctx context.Context, t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	c.fires = append(c.fires, t)
	return ctx.Err()
}

// fakeBackend scripts per-call behavior.
type fakeBackend struct {
	mu     sync.Mutex
	calls  int
	keys   []string
	submit func(call int, req wire.SubmitRequest) (wire.ReservationJSON, error)
}

func (f *fakeBackend) Submit(ctx context.Context, req wire.SubmitRequest) (wire.ReservationJSON, error) {
	f.mu.Lock()
	call := f.calls
	f.calls++
	f.keys = append(f.keys, req.IdempotencyKey)
	fn := f.submit
	f.mu.Unlock()
	if fn == nil {
		return wire.ReservationJSON{ID: call + 1, Accepted: true, State: "admitted"}, nil
	}
	return fn(call, req)
}

func (f *fakeBackend) SubmitBatch(ctx context.Context, reqs []wire.SubmitRequest) ([]wire.BatchItemJSON, error) {
	items := make([]wire.BatchItemJSON, len(reqs))
	for i, req := range reqs {
		res, err := f.Submit(ctx, req)
		if err != nil {
			return nil, err
		}
		items[i] = wire.BatchItemJSON{Reservation: &res}
	}
	return items, nil
}

func (f *fakeBackend) Cancel(ctx context.Context, id int) (wire.ReservationJSON, error) {
	return wire.ReservationJSON{ID: id, State: "cancelled"}, nil
}

// stallingBackend never answers: every submit blocks until the request
// context dies. The worst daemon imaginable, for proving the schedule
// does not care.
type stallingBackend struct{ fakeBackend }

func (s *stallingBackend) Submit(ctx context.Context, req wire.SubmitRequest) (wire.ReservationJSON, error) {
	<-ctx.Done()
	return wire.ReservationJSON{}, ctx.Err()
}

func (s *stallingBackend) SubmitBatch(ctx context.Context, reqs []wire.SubmitRequest) ([]wire.BatchItemJSON, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestNoCoordinatedOmission is the harness's reason to exist: one virtual
// user, a daemon that never answers, and the arrival schedule must still
// fire every instant on time. A closed-loop generator would send one
// request and then nothing — silently omitting every sample the stall
// caused. Here the stall costs drops, which are counted, not omitted.
func TestNoCoordinatedOmission(t *testing.T) {
	clock := newFakeClock()
	be := &stallingBackend{}
	phases := []Phase{{Name: "steady", Duration: 5 * time.Second, StartRate: 10, EndRate: 10}}
	rep, err := Run(context.Background(), Config{
		VUs:          1,
		Phases:       phases,
		Mix:          Mix{Submit: 1},
		Seed:         3,
		Timeout:      50 * time.Millisecond,
		Retries:      -1,
		DrainTimeout: 2 * time.Second,
		Backend:      be,
		Now:          clock.Now,
		SleepUntil:   clock.SleepUntil,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The schedule fired exactly the instants the pacer would produce for
	// this seed and profile, with zero influence from the stalled backend.
	offs, _ := collect(testPacer(t, 3, phases))
	if len(clock.fires) != len(offs) {
		t.Fatalf("schedule fired %d arrivals, pacer alone produces %d", len(clock.fires), len(offs))
	}
	start := time.Unix(1000, 0)
	for i, fired := range clock.fires {
		if want := start.Add(offs[i]); !fired.Equal(want) {
			t.Fatalf("arrival %d fired at %v, scheduled %v — the stalled backend moved the schedule", i, fired, want)
		}
	}

	// One virtual user was captured by the stall; every later arrival was
	// dropped on schedule, not queued behind it.
	offered := rep.OfferedArrivals
	if offered != uint64(len(offs)) {
		t.Fatalf("offered %d, want %d", offered, len(offs))
	}
	if rep.Total.Finished+rep.Total.Dropped != offered {
		t.Fatalf("finished %d + dropped %d != offered %d", rep.Total.Finished, rep.Total.Dropped, offered)
	}
	if rep.Total.Dropped != offered-1 {
		t.Fatalf("dropped %d of %d — a busy VU must drop arrivals, not defer them", rep.Total.Dropped, offered)
	}
	if got := rep.Total.Outcomes["timeout"]; got != 1 {
		t.Fatalf("timeouts = %d, want the one stalled request", got)
	}
}

// TestRunHappyPath drives the full runner against an instantly-answering
// fake and checks the report's accounting: every offered arrival lands in
// exactly one outcome, phases sum to the total, throughput is positive.
func TestRunHappyPath(t *testing.T) {
	clock := newFakeClock()
	be := &fakeBackend{}
	rep, err := Run(context.Background(), Config{
		VUs:          64,
		Phases:       Ramp(time.Second, 3*time.Second, time.Second, 50),
		Mix:          Mix{Submit: 80, Cancel: 10, Batch: 10, BatchSize: 4},
		Seed:         9,
		DrainTimeout: 5 * time.Second,
		Backend:      be,
		Now:          clock.Now,
		SleepUntil:   clock.SleepUntil,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Under the teleporting clock the whole profile dispatches in ~zero
	// real time, so some drops are legitimate; what must hold is the
	// accounting: every pacer arrival fired exactly once.
	offs, _ := collect(testPacer(t, 9, Ramp(time.Second, 3*time.Second, time.Second, 50)))
	if rep.OfferedArrivals != uint64(len(offs)) {
		t.Fatalf("offered %d arrivals, pacer produces %d", rep.OfferedArrivals, len(offs))
	}
	if rep.Total.Outcomes["admitted"] == 0 {
		t.Fatal("no admissions recorded")
	}
	if rep.Total.Outcomes["deduped"] != 0 {
		t.Fatalf("deduped = %d without any retries", rep.Total.Outcomes["deduped"])
	}
	var phaseFinished uint64
	for _, ph := range rep.Phases {
		phaseFinished += ph.Finished
	}
	if phaseFinished != rep.Total.Finished {
		t.Fatalf("phase finished sum %d != total %d", phaseFinished, rep.Total.Finished)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("report has %d phases, want 3", len(rep.Phases))
	}
	// Everyone got a latency sample: cancels that found no target skip the
	// histogram, everything else records exactly once per arrival... except
	// batch calls, which record once per call. So the histogram count is
	// bounded by finished outcomes and positive.
	if rep.Total.Latency.Count == 0 {
		t.Fatal("no latency samples recorded")
	}
}

// TestRetryReusesIdempotencyKey pins the dedup fix: a submit that fails
// at transport level is retried with the byte-identical idempotency key,
// and an admission confirmed on a retry is counted as deduped, never as a
// second admission.
func TestRetryReusesIdempotencyKey(t *testing.T) {
	clock := newFakeClock()
	be := &fakeBackend{}
	be.submit = func(call int, req wire.SubmitRequest) (wire.ReservationJSON, error) {
		if call == 0 {
			// The daemon admitted it, but the connection died before the
			// answer came back — the classic double-count trap.
			return wire.ReservationJSON{}, fmt.Errorf("connection reset")
		}
		return wire.ReservationJSON{ID: 7, Accepted: true, State: "admitted"}, nil
	}
	rep, err := Run(context.Background(), Config{
		VUs:          1,
		Phases:       []Phase{{Name: "one", Duration: time.Second, StartRate: 5, EndRate: 5}},
		Mix:          Mix{Submit: 1},
		Seed:         600,
		Retries:      2,
		DrainTimeout: 5 * time.Second,
		Backend:      be,
		Now:          clock.Now,
		SleepUntil:   clock.SleepUntil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if be.calls < 2 {
		t.Fatalf("expected a retry after the transport failure, saw %d calls", be.calls)
	}
	if be.keys[0] == "" || be.keys[0] != be.keys[1] {
		t.Fatalf("retry changed the idempotency key: %q then %q", be.keys[0], be.keys[1])
	}
	if rep.Total.Outcomes["deduped"] != 1 {
		t.Fatalf("outcomes = %v, want exactly one deduped admission from the retried submit", rep.Total.Outcomes)
	}
	admitted := rep.Total.Outcomes["admitted"] + rep.Total.Outcomes["deduped"]
	if admitted != uint64(be.calls-1) {
		// calls-1 distinct keys succeeded (call 0 and call 1 shared one);
		// anything else means an admission was double-counted.
		t.Fatalf("admitted+deduped = %d, want %d (one per distinct successful key)", admitted, be.calls-1)
	}
}

// TestPromEndpoint scrapes the live endpoint mid-run shape: after a run
// with PromAddr set, the report carries the bound address, and the
// recorder's exposition contains the expected families.
func TestPromEndpoint(t *testing.T) {
	clock := newFakeClock()
	be := &fakeBackend{}
	rep, err := Run(context.Background(), Config{
		VUs:          8,
		Phases:       []Phase{{Name: "steady", Duration: time.Second, StartRate: 20, EndRate: 20}},
		Mix:          Mix{Submit: 1},
		Seed:         5,
		PromAddr:     "127.0.0.1:0",
		DrainTimeout: 5 * time.Second,
		Backend:      be,
		Now:          clock.Now,
		SleepUntil:   clock.SleepUntil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PromAddr == "" {
		t.Fatal("report did not record the bound Prometheus address")
	}

	// The listener is closed after Run; render the exposition directly and
	// check the families a scraper would have seen live.
	rec := newRecorder([]Phase{{Name: "steady"}}, 8)
	rec.arrival(0)
	rec.count(0, OutAdmitted)
	rec.latency(0, 3*time.Millisecond)
	var sb strings.Builder
	rec.WritePrometheus(&sb)
	page := sb.String()
	for _, want := range []string{
		`gridbwload_arrivals_total{phase="steady"} 1`,
		`gridbwload_ops_total{phase="steady",outcome="admitted"} 1`,
		"gridbwload_inflight_vus 0",
		`gridbwload_latency_seconds{phase="total",quantile="0.99"}`,
		`gridbwload_latency_bucket_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q:\n%s", want, page)
		}
	}
}

// TestPromServesLive checks the actual HTTP surface: /metrics answers in
// text exposition and /report with the in-progress JSON document.
func TestPromServesLive(t *testing.T) {
	rec := newRecorder([]Phase{{Name: "p"}}, 4)
	rec.count(0, OutAdmitted)
	rec.latency(0, time.Millisecond)
	addr, stop, err := rec.serveProm("127.0.0.1:0", func() Report {
		return rec.buildReport(time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		return string(blob)
	}
	if page := get("/metrics"); !strings.Contains(page, "gridbwload_ops_total") {
		t.Errorf("/metrics missing ops counter:\n%s", page)
	}
	if page := get("/report"); !strings.Contains(page, `"achieved_rps"`) {
		t.Errorf("/report missing report JSON:\n%s", page)
	}
}

// TestHistoryRecordsClientObservations: with a History recorder attached,
// every submit, batch item and cancel the harness performs shows up as a
// checkable op — keys for submits, IDs for cancels, errors verbatim.
func TestHistoryRecordsClientObservations(t *testing.T) {
	clock := newFakeClock()
	be := &fakeBackend{}
	hist := check.NewRecorder()
	_, err := Run(context.Background(), Config{
		VUs:          8,
		Phases:       []Phase{{Name: "steady", Duration: 2 * time.Second, StartRate: 20, EndRate: 20}},
		Mix:          Mix{Submit: 2, Cancel: 1, Batch: 1, BatchSize: 3},
		Seed:         11,
		Timeout:      time.Second,
		Retries:      -1,
		DrainTimeout: 2 * time.Second,
		Backend:      be,
		Now:          clock.Now,
		// The virtual clock never waits, so the dispatcher can hand out all
		// 40 arrivals before the first submit has pushed its ID, and every
		// cancel then finds nothing to revoke (about 1 run in 500). A real
		// millisecond per arrival lets each op finish before the next.
		SleepUntil: func(ctx context.Context, at time.Time) error {
			time.Sleep(time.Millisecond)
			return clock.SleepUntil(ctx, at)
		},
		History: hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() == 0 {
		t.Fatal("history recorded nothing")
	}
	var submits, cancels int
	for _, op := range hist.Ops() {
		switch op.Kind {
		case check.OpSubmit:
			submits++
			if op.Key == "" {
				t.Fatalf("submit op without idempotency key: %+v", op)
			}
			if op.Err == "" && !op.Accepted {
				t.Fatalf("fake backend accepts everything, op says otherwise: %+v", op)
			}
		case check.OpCancel:
			cancels++
			if op.ID == 0 {
				t.Fatalf("cancel op without an ID: %+v", op)
			}
		}
	}
	if submits == 0 || cancels == 0 {
		t.Fatalf("history missing op kinds: %d submits, %d cancels", submits, cancels)
	}
	// Every wire submit the backend saw is in the history, one op each.
	if submits != len(be.keys) {
		t.Fatalf("history holds %d submits, backend saw %d", submits, len(be.keys))
	}
}
