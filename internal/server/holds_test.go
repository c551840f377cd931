package server_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"gridbw/internal/faults"
	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// holdConfig is a 2-point platform where one full-capacity hold saturates
// a point: volume 1e10 over a 10s deadline at cap 1GB/s leaves zero
// slack, so double-booking is immediately visible as a refusal.
func holdConfig(clk *fakeClock, sink trace.DecisionSink) server.Config {
	return server.Config{
		Ingress:   []units.Bandwidth{units.GBps, units.GBps},
		Egress:    []units.Bandwidth{units.GBps, units.GBps},
		Clock:     clk.now,
		Decisions: sink,
	}
}

func fullReserve(hold string) wire.HoldReserveJSON {
	return wire.HoldReserveJSON{
		Hold: hold, Side: trace.HoldSideIngress,
		Point: 0, PeerPoint: 1, TTLS: 5,
		VolumeBytes: 1e10, MaxRateBps: 1e9, DeadlineS: 10,
	}
}

// fullReserveRel is fullReserve with the window expressed as an offset
// from the shard's current service clock — for probes issued after the
// test has advanced time past the absolute window of fullReserve.
func fullReserveRel(hold string) wire.HoldReserveJSON {
	r := fullReserve(hold)
	r.RelTimes = true
	return r
}

// reserve1, confirm1 and abort1 drive the list-shaped hold calls with a
// single hold.
func reserve1(s *server.Server, req wire.HoldReserveJSON) (wire.HoldReserveResponseJSON, error) {
	out, err := s.HoldReserve([]wire.HoldReserveJSON{req})
	if err != nil {
		return wire.HoldReserveResponseJSON{}, err
	}
	return out[0], nil
}

func confirm1(s *server.Server, hold string, epoch uint64) (wire.HoldStateJSON, error) {
	out, err := s.HoldConfirm([]wire.HoldRef{{Key: []byte(hold), Epoch: epoch}})
	if err != nil {
		return wire.HoldStateJSON{}, err
	}
	return out[0], nil
}

func abort1(s *server.Server, hold string) (wire.HoldStateJSON, error) {
	out, err := s.HoldAbort([]wire.HoldRef{{Key: []byte(hold)}})
	if err != nil {
		return wire.HoldStateJSON{}, err
	}
	return out[0], nil
}

// TestHoldReserveProposesAndBooks: an ingress-side RESERVE runs the
// one-sided admission search, proposes a concrete grant, and actually
// books it — a second saturating reserve is refused while the first is
// held, and refusals are remembered (tombstoned) for idempotent replay.
func TestHoldReserveProposesAndBooks(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))

	r1, err := reserve1(s, fullReserve("h1"))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Held || r1.RateBps != 1e9 || r1.TauS-r1.SigmaS != 10 {
		t.Fatalf("reserve = %+v, want a held full-capacity 10s grant", r1)
	}
	if r1.ID < 0 {
		t.Fatalf("ingress reserve allocated no local ID: %+v", r1)
	}

	r2, err := reserve1(s, fullReserve("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Held || r2.Reason == "" {
		t.Fatalf("saturating second reserve = %+v, want a reasoned refusal", r2)
	}
	// The refusal is remembered: a duplicate delivery answers identically.
	r2b, err := reserve1(s, fullReserve("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if r2b.Held || r2b.Reason != r2.Reason {
		t.Fatalf("refusal replay = %+v, want %+v", r2b, r2)
	}

	// Duplicate of the held side answers the same grant without booking
	// twice.
	r1b, err := reserve1(s, fullReserve("h1"))
	if err != nil {
		t.Fatal(err)
	}
	if !r1b.Held || r1b.ID != r1.ID || r1b.RateBps != r1.RateBps {
		t.Fatalf("reserve replay = %+v, want %+v", r1b, r1)
	}
	if held, confirmed := s.HoldStats(); held != 1 || confirmed != 0 {
		t.Fatalf("holds = %d held / %d confirmed, want 1/0", held, confirmed)
	}
}

// TestHoldConfirmReleasesOnSchedule: a confirmed hold keeps its booking
// until τ and releases on time — not before, not never.
func TestHoldConfirmReleasesOnSchedule(t *testing.T) {
	clk := &fakeClock{}
	sink := &eventSink{}
	s := newTestServer(t, holdConfig(clk, sink))

	r, err := reserve1(s, fullReserve("h1"))
	if err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	st, err := confirm1(s, "h1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "confirmed" {
		t.Fatalf("confirm state = %q", st.State)
	}
	// Confirm is idempotent.
	if st2, err := confirm1(s, "h1", 0); err != nil || st2.State != "confirmed" {
		t.Fatalf("confirm replay: %v %+v", err, st2)
	}

	// Past the original TTL but before τ the booking must survive: a
	// saturating reserve still refuses.
	clk.advance(7 * time.Second)
	s.Now()
	if r2, err := reserve1(s, fullReserve("h2")); err != nil || r2.Held {
		t.Fatalf("reserve against confirmed hold: %v %+v, want refusal", err, r2)
	}

	clk.advance(4 * time.Second) // past τ=10
	s.Now()
	if held, confirmed := s.HoldStats(); held != 0 || confirmed != 0 {
		t.Fatalf("holds after τ = %d/%d, want released", held, confirmed)
	}
	if r3, err := reserve1(s, fullReserveRel("h3")); err != nil || !r3.Held {
		t.Fatalf("reserve after release: %v %+v, want capacity back", err, r3)
	}
	assertHoldEvent(t, sink, trace.EventHoldRelease, "h1")
}

// TestHoldTTLExpiry: an unconfirmed hold rolls back when its TTL lapses,
// the expiry is WAL-visible, and the capacity is reusable.
func TestHoldTTLExpiry(t *testing.T) {
	clk := &fakeClock{}
	sink := &eventSink{}
	s := newTestServer(t, holdConfig(clk, sink))

	if r, err := reserve1(s, fullReserve("h1")); err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	clk.advance(6 * time.Second) // past TTL 5
	s.Now()
	if held, confirmed := s.HoldStats(); held != 0 || confirmed != 0 {
		t.Fatalf("holds after TTL = %d/%d, want expired", held, confirmed)
	}
	assertHoldEvent(t, sink, trace.EventHoldExpire, "h1")

	// A late CONFIRM of the lapsed hold is the conflict the router maps to
	// "abort the peer side".
	if st, err := confirm1(s, "h1", 0); err != nil || st.Code != http.StatusConflict {
		t.Fatalf("confirm after expiry: %v %+v, want the item's 409", err, st)
	}
	if r, err := reserve1(s, fullReserveRel("h2")); err != nil || !r.Held {
		t.Fatalf("reserve after expiry: %v %+v, want capacity back", err, r)
	}
}

// TestHoldTTLIsCappedAtAMinute: a TTL past the cap holds for the cap, 60 s,
// however large it is — also one too large for a time.Duration.
func TestHoldTTLIsCappedAtAMinute(t *testing.T) {
	for _, ttl := range []float64{600, 1e12} {
		clk := &fakeClock{}
		s := newTestServer(t, holdConfig(clk, nil))
		req := fullReserve("h1")
		req.TTLS = ttl
		if r, err := reserve1(s, req); err != nil || !r.Held {
			t.Fatalf("TTL %g: reserve: %v %+v", ttl, err, r)
		}
		for _, step := range []struct {
			advance time.Duration
			held    int
		}{{59 * time.Second, 1}, {2 * time.Second, 0}} {
			clk.advance(step.advance)
			s.Now()
			if held, _ := s.HoldStats(); held != step.held {
				t.Fatalf("TTL %g: %d holds held at %v, want %d", ttl, held, s.Now(), step.held)
			}
		}
	}
}

// TestHoldAbortTombstone: aborting an unknown key leaves a refusal
// tombstone, so a delayed RESERVE retry cannot resurrect a pair the
// router already rolled back.
func TestHoldAbortTombstone(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))

	st, err := abort1(s, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if st.Released {
		t.Fatalf("abort of unknown key released capacity: %+v", st)
	}
	r, err := reserve1(s, fullReserve("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Held {
		t.Fatalf("reserve resurrected an aborted key: %+v", r)
	}
	// Abort stays idempotent on the tombstone.
	if _, err := abort1(s, "ghost"); err != nil {
		t.Fatal(err)
	}
}

// TestHoldConfirmFencing: a CONFIRM presenting a stale epoch is refused —
// the router must refresh against the promoted lineage, not commit blind.
func TestHoldConfirmFencing(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))

	r, err := reserve1(s, fullReserve("h1"))
	if err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	var fenced *server.FencedError
	if _, err := confirm1(s, "h1", r.Epoch+7); !errors.As(err, &fenced) {
		t.Fatalf("confirm with wrong epoch: %v, want FencedError", err)
	}
	// The hold survives the fenced attempt; the correct epoch commits.
	if st, err := confirm1(s, "h1", r.Epoch); err != nil || st.State != "confirmed" {
		t.Fatalf("confirm with reserve-time epoch: %v %+v", err, st)
	}
}

// TestHoldSnapshotRoundTrip: booked holds ride the snapshot — a restored
// server still refuses a saturating reserve and still releases at τ.
func TestHoldSnapshotRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))

	r, err := reserve1(s, fullReserve("h1"))
	if err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	if _, err := confirm1(s, "h1", 0); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	restored, err := server.NewFromSnapshot(snap, server.Config{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	if held, confirmed := restored.HoldStats(); held != 0 || confirmed != 1 {
		t.Fatalf("restored holds = %d/%d, want 0 held / 1 confirmed", held, confirmed)
	}
	if r2, err := reserve1(restored, fullReserve("h2")); err != nil || r2.Held {
		t.Fatalf("restored reserve: %v %+v, want refusal while h1 is booked", err, r2)
	}
	clk.advance(11 * time.Second)
	restored.Now()
	if r3, err := reserve1(restored, fullReserveRel("h3")); err != nil || !r3.Held {
		t.Fatalf("restored reserve after τ: %v %+v, want capacity back", err, r3)
	}
}

// TestHoldTombstonesKeepRetirementOrder: tombstones ride the snapshot in the
// order they were retired, not in key order, and a restored server files
// them in that order again — so its retention evicts them as the donor's
// would — and answers a late RESERVE with the donor's refusal.
func TestHoldTombstonesKeepRetirementOrder(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))
	if r, err := reserve1(s, fullReserve("h1")); err != nil || !r.Held {
		t.Fatalf("reserve: %v %+v", err, r)
	}
	abort1(s, "b")
	abort1(s, "a")
	refused, err := reserve1(s, fullReserve("c"))
	if err != nil || refused.Held {
		t.Fatalf("reserve on a full point: %v %+v, want refusal", err, refused)
	}
	abort1(s, "0")
	order := func(snap *server.Snapshot) []string {
		var keys []string
		for _, ev := range snap.Events {
			if ev.Hold != "h1" {
				keys = append(keys, ev.Hold)
			}
		}
		return keys
	}
	snap := s.Snapshot()
	if got, want := order(snap), []string{"b", "a", "c", "0"}; !slices.Equal(got, want) {
		t.Fatalf("snapshot tombstones %v, want retirement order %v", got, want)
	}
	restored, err := server.NewFromSnapshot(snap, server.Config{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got, want := order(restored.Snapshot()), order(snap); !slices.Equal(got, want) {
		t.Fatalf("restored tombstones %v, want %v", got, want)
	}
	late, err := reserve1(restored, fullReserve("c"))
	refused.Epoch = late.Epoch
	if err != nil || late != refused {
		t.Fatalf("restored late reserve: %v %+v, want %+v", err, late, refused)
	}
}

// TestHoldEgressRelTimes: the egress side resolves a RelTimes window
// against its own clock and books it — the cross-clock conversion the
// router depends on.
func TestHoldEgressRelTimes(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))
	clk.advance(100 * time.Second) // egress shard service clock well past 0
	s.Now()

	st, err := reserve1(s, wire.HoldReserveJSON{
		Hold: "h1", Side: trace.HoldSideEgress,
		Point: 0, PeerPoint: 1, TTLS: 5, RelTimes: true,
		RateBps: 1e9, SigmaS: 0, TauS: 10,
		VolumeBytes: 1e10, MaxRateBps: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Held {
		t.Fatalf("egress reserve = %+v, want held", st)
	}
	if st.SigmaS < 100 || st.TauS-st.SigmaS != 10 {
		t.Fatalf("egress grant window = [%g, %g], want the 10s window on this shard's clock (≥100s)",
			st.SigmaS, st.TauS)
	}
	// The booking is authoritative: a second saturating egress check on
	// the same point must refuse while the first window is held.
	st2, err := reserve1(s, wire.HoldReserveJSON{
		Hold: "h2", Side: trace.HoldSideEgress,
		Point: 0, PeerPoint: 1, TTLS: 5, RelTimes: true,
		RateBps: 1e9, SigmaS: 0, TauS: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Held {
		t.Fatalf("second saturating egress reserve = %+v, want refusal", st2)
	}
}

// assertHoldEvent scans the events sink saw for a hold event of one kind.
func assertHoldEvent(t *testing.T, sink *eventSink, kind, hold string) {
	t.Helper()
	for _, ev := range sink.Events() {
		if ev.Kind == kind && ev.Hold == hold {
			return
		}
	}
	t.Fatalf("no %s event for hold %q among the logged events", kind, hold)
}

// holdEvents lists the logged hold transitions as "kind:key", in log order.
func holdEvents(t *testing.T, sink *eventSink) []string {
	t.Helper()
	var out []string
	for _, ev := range sink.Events() {
		if ev.Hold != "" {
			out = append(out, ev.Kind+":"+ev.Hold)
		}
	}
	return out
}

// TestHoldReserveListOrder: one RESERVE list is decided in list order
// through the per-hold code — the first saturating hold wins, a repeated
// key answers the first one's decision and books once, a malformed item
// fails alone — and logs exactly the events one-item calls would have.
func TestHoldReserveListOrder(t *testing.T) {
	clk := &fakeClock{}
	sink := &eventSink{}
	s := newTestServer(t, holdConfig(clk, sink))

	bad := fullReserve("bad")
	bad.Point = 99
	out, err := s.HoldReserve([]wire.HoldReserveJSON{
		fullReserve("h1"), bad, fullReserve("h2"), fullReserve("h1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Held || out[0].Code != 0 {
		t.Errorf("first saturating hold = %+v, want held", out[0])
	}
	if out[1].Code != http.StatusBadRequest || out[1].Error == "" || out[1].Held {
		t.Errorf("out-of-range item = %+v, want its own 400", out[1])
	}
	if out[2].Held || out[2].Reason == "" || out[2].Code != 0 {
		t.Errorf("second saturating hold = %+v, want a reasoned refusal", out[2])
	}
	if !out[3].Held || out[3].ID != out[0].ID || out[3].RateBps != out[0].RateBps {
		t.Errorf("repeated key = %+v, want the first decision %+v", out[3], out[0])
	}
	if out[0].NowS != out[3].NowS {
		t.Errorf("now_s differs within one list: %g vs %g", out[0].NowS, out[3].NowS)
	}
	if held, confirmed := s.HoldStats(); held != 1 || confirmed != 0 {
		t.Fatalf("holds = %d held / %d confirmed, want 1/0", held, confirmed)
	}
	// The refusal of h2 is recorded too (its tombstone must survive replay);
	// the repeated h1 and the malformed item are not.
	if got := holdEvents(t, sink); !slices.Equal(got, []string{trace.EventHoldReserve + ":h1", trace.EventHoldReserve + ":h2"}) {
		t.Errorf("logged %v, want the hold_reserve of h1 and of h2", got)
	}
}

// TestHoldConfirmListPartial: one expired hold in a CONFIRM list answers
// its own 409 while its neighbours commit, an unknown key its 404, and a
// fenced epoch anywhere in the list refuses the whole call untouched.
func TestHoldConfirmListPartial(t *testing.T) {
	clk := &fakeClock{}
	sink := &eventSink{}
	s := newTestServer(t, holdConfig(clk, sink))

	short := fullReserve("short")
	short.TTLS = 1
	other := fullReserve("long")
	other.Point, other.TTLS = 1, 30
	rs, err := s.HoldReserve([]wire.HoldReserveJSON{short, other})
	if err != nil || !rs[0].Held || !rs[1].Held {
		t.Fatalf("reserve: %v %+v", err, rs)
	}
	clk.advance(2 * time.Second) // past short's TTL only
	s.Now()

	var fenced *server.FencedError
	if _, err := s.HoldConfirm([]wire.HoldRef{
		{Key: []byte("long")}, {Key: []byte("short"), Epoch: rs[0].Epoch + 3},
	}); !errors.As(err, &fenced) {
		t.Fatalf("confirm list with a stale epoch: %v, want FencedError", err)
	}
	if _, confirmed := s.HoldStats(); confirmed != 0 {
		t.Fatalf("fenced call confirmed %d holds, want none", confirmed)
	}

	out, err := s.HoldConfirm([]wire.HoldRef{
		{Key: []byte("short"), Epoch: rs[0].Epoch}, {Key: []byte("long"), Epoch: rs[1].Epoch}, {Key: []byte("ghost")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Code != http.StatusConflict || out[0].State != "aborted" {
		t.Errorf("expired hold = %+v, want 409 aborted", out[0])
	}
	if out[1].Code != 0 || out[1].State != "confirmed" {
		t.Errorf("live hold = %+v, want confirmed", out[1])
	}
	if out[2].Code != http.StatusNotFound {
		t.Errorf("unknown hold = %+v, want 404", out[2])
	}
	if held, confirmed := s.HoldStats(); held != 0 || confirmed != 1 {
		t.Fatalf("holds = %d held / %d confirmed, want 0/1", held, confirmed)
	}

	// The peer-side abort of the failed pair travels in one list with an
	// abort by request ID (the cancel path) of the committed one.
	id := rs[1].ID
	ab, err := s.HoldAbort([]wire.HoldRef{{Key: []byte("short")}, {ID: id, HasID: true}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if ab[0].Released || ab[0].State != "aborted" {
		t.Errorf("abort of the expired hold = %+v, want a released-nothing no-op", ab[0])
	}
	if !ab[1].Released || ab[1].Hold != "long" {
		t.Errorf("abort by id = %+v, want hold long released", ab[1])
	}
	if ab[2].Code != http.StatusBadRequest {
		t.Errorf("empty ref = %+v, want 400", ab[2])
	}
	want := []string{
		trace.EventHoldReserve + ":short", trace.EventHoldReserve + ":long",
		trace.EventHoldExpire + ":short", trace.EventHoldConfirm + ":long",
		trace.EventHoldAbort + ":long",
	}
	got := holdEvents(t, sink)
	if len(got) != len(want) {
		t.Fatalf("logged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logged %v, want %v", got, want)
		}
	}
}

// TestHoldHTTPList: the wire form — {"holds":[…]} in, {"results":[…]} out
// on all three paths, and an empty list is a 400.
func TestHoldHTTPList(t *testing.T) {
	clk := &fakeClock{}
	s := newTestServer(t, holdConfig(clk, nil))
	web := httptest.NewServer(s.Handler())
	defer web.Close()

	post := func(path, body string, out any) int {
		t.Helper()
		resp, err := http.Post(web.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	var rs wire.HoldResultsJSON[wire.HoldReserveResponseJSON]
	code := post("/v1/reserve", `{"holds":[
		{"hold":"a","side":"in","point":0,"peer_point":1,"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":100},
		{"hold":"b","side":"eg","point":1,"peer_point":0,"rate_bps":1e8,"sigma_s":0,"tau_s":10}]}`, &rs)
	if code != http.StatusOK || len(rs.Results) != 2 || !rs.Results[0].Held || !rs.Results[1].Held {
		t.Fatalf("reserve = %d %+v", code, rs)
	}
	var st wire.HoldResultsJSON[wire.HoldStateJSON]
	if code := post("/v1/confirm", `{"holds":[{"hold":"a"},{"hold":"b"}]}`, &st); code != http.StatusOK ||
		len(st.Results) != 2 || st.Results[0].State != "confirmed" || st.Results[1].State != "confirmed" {
		t.Fatalf("confirm = %d %+v", code, st)
	}
	if code := post("/v1/abort", `{"holds":[{"hold":"a"},{"hold":"b"}]}`, &st); code != http.StatusOK ||
		!st.Results[0].Released || !st.Results[1].Released {
		t.Fatalf("abort = %d %+v", code, st)
	}
	for _, path := range []string{"/v1/reserve", "/v1/confirm", "/v1/abort"} {
		if code := post(path, `{"holds":[]}`, nil); code != http.StatusBadRequest {
			t.Errorf("%s with an empty list = %d, want 400", path, code)
		}
		if code := post(path, `{"hold":"a"}`, nil); code != http.StatusBadRequest {
			t.Errorf("%s with the single-object body = %d, want 400", path, code)
		}
	}
}

// TestHoldReserveListPoisonedMidway: a disk fault that poisons the WAL
// while hold i of a RESERVE list is logged must stop the list there — no
// later hold may be booked and answered held without a durable record. The
// call fails whole, and the caller's abort returns what was booked.
func TestHoldReserveListPoisonedMidway(t *testing.T) {
	dfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
	l, _, err := wal.Open(t.TempDir(), wal.Options{FS: dfs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := uniformConfig(nil)
	cfg.WAL = l
	s := newTestServer(t, cfg)

	list := make([]wire.HoldReserveJSON, 3)
	refs := make([]wire.HoldRef, len(list))
	for i := range list {
		list[i] = fullReserve(string(rune('a' + i)))
		list[i].VolumeBytes = 1e9 // all three fit side by side
		refs[i].Key = []byte(list[i].Hold)
	}
	dfs.FailNextFsyncs(1)
	if _, err := s.HoldReserve(list); !errors.Is(err, server.ErrDurabilityLost) {
		t.Fatalf("reserve list across the fault: %v, want ErrDurabilityLost", err)
	}
	if held, confirmed := s.HoldStats(); held != 1 || confirmed != 0 {
		t.Fatalf("after the poisoned list: %d held / %d confirmed, want only the hold that met the fault", held, confirmed)
	}
	if _, err := s.HoldAbort(refs); err != nil {
		t.Fatal(err)
	}
	if held, confirmed := s.HoldStats(); held != 0 || confirmed != 0 {
		t.Fatalf("after the abort: %d held / %d confirmed, want 0/0", held, confirmed)
	}
}

// TestHoldConfirmListPoisoned: a CONFIRM list whose one WAL append meets an
// fsync fault answers ErrDurabilityLost, not "confirmed" — its records may
// not survive a failover, and the refusal makes the router abort both sides
// — and so does every CONFIRM after it, before it steps anything. ABORT
// still converges the holds.
func TestHoldConfirmListPoisoned(t *testing.T) {
	dfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
	l, _, err := wal.Open(t.TempDir(), wal.Options{FS: dfs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := uniformConfig(nil)
	cfg.WAL = l
	s := newTestServer(t, cfg)

	list := make([]wire.HoldReserveJSON, 3)
	refs := make([]wire.HoldRef, len(list))
	for i := range list {
		list[i] = fullReserve(string(rune('a' + i)))
		list[i].VolumeBytes = 1e9 // all three fit side by side
		refs[i].Key = []byte(list[i].Hold)
	}
	if _, err := s.HoldReserve(list); err != nil {
		t.Fatal(err)
	}
	dfs.FailNextFsyncs(1)
	if sts, err := s.HoldConfirm(refs); !errors.Is(err, server.ErrDurabilityLost) {
		t.Fatalf("confirm list across the fault: %+v, %v; want ErrDurabilityLost", sts, err)
	}
	if !s.WALPoisoned() {
		t.Fatal("the fault did not poison the WAL")
	}
	if _, err := confirm1(s, "a", 0); !errors.Is(err, server.ErrDurabilityLost) {
		t.Fatalf("confirm on the poisoned WAL: %v, want ErrDurabilityLost", err)
	}
	if _, err := s.HoldAbort(refs); err != nil {
		t.Fatal(err)
	}
	if held, confirmed := s.HoldStats(); held != 0 || confirmed != 0 {
		t.Fatalf("after the abort: %d held / %d confirmed, want 0/0", held, confirmed)
	}
}

// TestHoldLiveEqualsReplay: on each start path of internal/hold's truth
// table, a daemon driven through its hold calls and its clock, a second
// daemon rebuilt from nothing but the first one's WAL, and a third restored
// from the first one's snapshot hold the same table: every hold, the
// retirement queue, and what books. A refused RESERVE writes its record and a
// released hold rides the snapshot, so no path is exempt.
func TestHoldLiveEqualsReplay(t *testing.T) {
	reserve := func(t *testing.T, s *server.Server, key string, held bool) {
		t.Helper()
		if r, err := reserve1(s, fullReserve(key)); err != nil || r.Held != held {
			t.Fatalf("reserve %s: %v %+v, want held=%v", key, err, r, held)
		}
	}
	call := func(t *testing.T, op func(*server.Server, string) (wire.HoldStateJSON, error), s *server.Server, key string) {
		t.Helper()
		if st, err := op(s, key); err != nil || st.Code != 0 {
			t.Fatalf("%s: %v %+v", key, err, st)
		}
	}
	confirm := func(s *server.Server, key string) (wire.HoldStateJSON, error) { return confirm1(s, key, 0) }
	paths := []struct {
		name  string
		drive func(t *testing.T, s *server.Server, clk *fakeClock)
	}{
		{"unknown", func(*testing.T, *server.Server, *fakeClock) {}},
		{"held", func(t *testing.T, s *server.Server, _ *fakeClock) { reserve(t, s, "k", true) }},
		{"refused", func(t *testing.T, s *server.Server, _ *fakeClock) {
			reserve(t, s, "blocker", true)
			reserve(t, s, "k", false)
		}},
		{"confirmed", func(t *testing.T, s *server.Server, _ *fakeClock) {
			reserve(t, s, "k", true)
			call(t, confirm, s, "k")
		}},
		{"released", func(t *testing.T, s *server.Server, clk *fakeClock) {
			reserve(t, s, "k", true)
			call(t, confirm, s, "k")
			clk.advance(11 * time.Second) // past τ = 10
		}},
		{"rolled back", func(t *testing.T, s *server.Server, _ *fakeClock) {
			reserve(t, s, "k", true)
			call(t, abort1, s, "k")
		}},
		{"expired", func(t *testing.T, s *server.Server, clk *fakeClock) {
			reserve(t, s, "k", true)
			clk.advance(6 * time.Second) // past the TTL of 5
		}},
		{"tombstone", func(t *testing.T, s *server.Server, _ *fakeClock) { call(t, abort1, s, "k") }},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			clk := &fakeClock{}
			cfg := holdConfig(clk, nil)
			cfg.WAL = openTestWAL(t)
			live := newTestServer(t, cfg)
			p.drive(t, live, clk)
			live.Now() // fire what the clock made due, so the WAL has it
			events, _, err := server.ReadWALEvents(cfg.WAL, wal.Pos{})
			if err != nil {
				t.Fatal(err)
			}
			replayed := newTestServer(t, holdConfig(clk, nil))
			if n, err := replayed.ApplyEvents(events); err != nil || n != len(events) {
				t.Fatalf("applied %d of %d events: %v", n, len(events), err)
			}
			restored, err := server.NewFromSnapshot(live.Snapshot(), server.Config{Clock: clk.now})
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()

			liveHeld, liveConfirmed := live.HoldStats()
			liveAll, liveRetired := live.HoldRows()
			for name, s := range map[string]*server.Server{"replay": replayed, "snapshot": restored} {
				if held, confirmed := s.HoldStats(); held != liveHeld || confirmed != liveConfirmed {
					t.Errorf("%s books %d held / %d confirmed, live %d / %d", name, held, confirmed, liveHeld, liveConfirmed)
				}
				all, retired := s.HoldRows()
				if !slices.Equal(all, liveAll) {
					t.Errorf("%s holds\n  %+v\nlive\n  %+v", name, all, liveAll)
				}
				if !slices.Equal(retired, liveRetired) {
					t.Errorf("%s retirement queue\n  %+v\nlive\n  %+v", name, retired, liveRetired)
				}
			}
		})
	}
}
