package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/callplane"
	"gridbw/internal/chaosnet"
	"gridbw/internal/request"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

const testPoints = 8

// eventBuf collects one shard's decision events for assertions.
type eventBuf struct {
	ch chan trace.Event
}

func newEventBuf() *eventBuf { return &eventBuf{ch: make(chan trace.Event, 1024)} }

func (b *eventBuf) Append(ev trace.Event) error {
	select {
	case b.ch <- ev:
	default:
	}
	return nil
}

// waitKind blocks until an event of one of the wanted kinds arrives.
func (b *eventBuf) waitKind(t *testing.T, kinds ...string) trace.Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-b.ch:
			for _, k := range kinds {
				if ev.Kind == k {
					return ev
				}
			}
		case <-deadline:
			t.Fatalf("no %v event within 5s", kinds)
		}
	}
}

// testTier is two single-daemon shard groups behind one router.
type testTier struct {
	rt      *Router
	web     *httptest.Server
	servers []*server.Server
	backs   []*httptest.Server
	events  []*eventBuf

	// shardCalls counts what reached the shards over HTTP, by "METHOD path
	// codec"; plain keeps every call there, off the call stream.
	mu         sync.Mutex
	shardCalls map[string]int
	plain      bool
}

// recording counts every HTTP request a shard receives, by route and codec.
func (tier *testTier) recording(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		codec := "json"
		if callplane.Framed(r) {
			codec = "framed"
		}
		tier.mu.Lock()
		tier.shardCalls[r.Method+" "+r.URL.Path+" "+codec]++
		pin := tier.plain
		tier.mu.Unlock()
		if pin {
			w = plainWriter{w}
		}
		next.ServeHTTP(w, r)
	})
}

// plainWriter hides Hijack, as a tracing or metrics middleware often does:
// the server cannot take the connection over for the call stream, so every
// call through it stays an HTTP round trip, and a fault double in front of
// it sees each one.
type plainWriter struct{ http.ResponseWriter }

// pinHTTP fronts h with plainWriter.
func pinHTTP(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { h(plainWriter{w}, r) }
}

func caps(n int, bw units.Bandwidth) []units.Bandwidth {
	out := make([]units.Bandwidth, n)
	for i := range out {
		out[i] = bw
	}
	return out
}

// newTier boots nShards in-process daemons (egressBw lets a test starve
// one side) and a router over them.
func newTier(t *testing.T, nShards int, egressBw units.Bandwidth) *testTier {
	return newTierWith(t, nShards, func(_ int, cfg *server.Config) {
		cfg.Egress = caps(testPoints, egressBw)
	})
}

// newTierWith is newTier with each shard's configuration open to tune.
func newTierWith(t testing.TB, nShards int, tune func(shard int, cfg *server.Config)) *testTier {
	t.Helper()
	tier := &testTier{shardCalls: map[string]int{}}
	var shards []ShardConfig
	for i := 0; i < nShards; i++ {
		evs := newEventBuf()
		cfg := server.Config{
			Ingress:   caps(testPoints, units.GBps),
			Egress:    caps(testPoints, units.GBps),
			Decisions: evs,
		}
		tune(i, &cfg)
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(tier.recording(srv.Handler()))
		tier.servers = append(tier.servers, srv)
		tier.backs = append(tier.backs, ts)
		tier.events = append(tier.events, evs)
		shards = append(shards, ShardConfig{Name: fmt.Sprintf("s%d", i), Endpoints: []string{ts.URL}})
	}
	rt, err := New(Config{Shards: shards, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tier.rt = rt
	tier.web = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		tier.web.Close()
		rt.Close()
		for i := range tier.servers {
			tier.backs[i].Close()
			tier.servers[i].Close()
		}
	})
	return tier
}

// pairs scans the point space for a same-shard and a cross-shard pair.
func (tier *testTier) pairs(t testing.TB) (sameFrom, sameTo, crossFrom, crossTo int) {
	t.Helper()
	ring := tier.rt.Ring()
	foundSame, foundCross := false, false
	for i := 0; i < testPoints; i++ {
		for e := 0; e < testPoints; e++ {
			if ring.OwnerIn(i) == ring.OwnerEg(e) && !foundSame {
				sameFrom, sameTo, foundSame = i, e, true
			}
			if ring.OwnerIn(i) != ring.OwnerEg(e) && !foundCross {
				crossFrom, crossTo, foundCross = i, e, true
			}
		}
	}
	if !foundSame || !foundCross {
		t.Fatalf("seed gives no same/cross pair split over %d points", testPoints)
	}
	return
}

func (tier *testTier) submit(t *testing.T, req wire.SubmitRequest) (wire.ReservationJSON, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(tier.web.URL+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res wire.ReservationJSON
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	}
	return res, resp.StatusCode
}

func submitReq(from, to int) wire.SubmitRequest {
	return wire.SubmitRequest{
		From: from, To: to,
		VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 1000,
	}
}

// TestSameShardProxy: a pair owned by one shard proxies straight through
// with the ID namespaced, and GET/DELETE round-trip through the same
// translation.
func TestSameShardProxy(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	from, to, _, _ := tier.pairs(t)
	owner := tier.rt.Ring().OwnerIn(from)

	res, code := tier.submit(t, submitReq(from, to))
	if code != http.StatusCreated || !res.Accepted {
		t.Fatalf("submit = %d %+v", code, res)
	}
	if res.Routed != "" {
		t.Errorf("same-shard decision marked routed=%q", res.Routed)
	}
	if res.ID%2 != owner {
		t.Errorf("visible ID %d encodes shard %d, want owner %d", res.ID, res.ID%2, owner)
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d", tier.web.URL, res.ID))
	if err != nil {
		t.Fatal(err)
	}
	var got wire.ReservationJSON
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.ID != res.ID {
		t.Fatalf("get = %d %+v, want id %d", resp.StatusCode, got, res.ID)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/requests/%d", tier.web.URL, res.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled wire.ReservationJSON
	json.NewDecoder(resp.Body).Decode(&cancelled)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cancelled.State != string(server.StateCancelled) {
		t.Fatalf("cancel = %d %+v", resp.StatusCode, cancelled)
	}
	if cancelled.ID != res.ID {
		t.Errorf("cancel answered id %d, want visible %d", cancelled.ID, res.ID)
	}
}

// TestCrossShardCommit: a split pair runs the two-phase protocol; both
// owners log a confirm, the answer is marked cross_shard, and a client
// retry with the same idempotency key converges on the same pair instead
// of booking twice.
func TestCrossShardCommit(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	_, _, from, to := tier.pairs(t)
	inIdx := tier.rt.Ring().OwnerIn(from)
	egIdx := tier.rt.Ring().OwnerEg(to)

	req := submitReq(from, to)
	req.IdempotencyKey = "retry-me"
	res, code := tier.submit(t, req)
	if code != http.StatusCreated || !res.Accepted {
		t.Fatalf("submit = %d %+v", code, res)
	}
	if res.Routed != wire.RoutedCrossShard {
		t.Errorf("routed = %q, want %q", res.Routed, wire.RoutedCrossShard)
	}
	if res.ID%2 != inIdx {
		t.Errorf("visible ID %d encodes shard %d, want ingress owner %d", res.ID, res.ID%2, inIdx)
	}
	if res.RateBps <= 0 || res.TauS <= res.SigmaS {
		t.Errorf("grant = %+v, want a positive window", res)
	}
	for _, idx := range []int{inIdx, egIdx} {
		ev := tier.events[idx].waitKind(t, trace.EventHoldConfirm)
		if ev.Hold != "x-retry-me" {
			t.Errorf("shard %d confirmed hold %q, want x-retry-me", idx, ev.Hold)
		}
	}
	if held, confirmed := tier.servers[inIdx].HoldStats(); held != 0 || confirmed != 1 {
		t.Errorf("ingress shard holds = %d held / %d confirmed, want 0/1", held, confirmed)
	}

	// The retry reuses the hold pair: same visible ID, still accepted, and
	// no second booking on either shard.
	res2, code2 := tier.submit(t, req)
	if code2 != http.StatusCreated || res2.ID != res.ID || !res2.Accepted {
		t.Fatalf("retry = %d %+v, want same decision id %d", code2, res2, res.ID)
	}
	if _, confirmed := tier.servers[egIdx].HoldStats(); confirmed != 1 {
		t.Errorf("egress shard confirmed %d holds after retry, want 1", confirmed)
	}
}

// TestCrossShardEgressRefusal: the egress owner's authoritative check
// refuses the proposed grant (its capacity is starved); the client gets a
// clean domain rejection and the ingress-side hold is rolled back — no
// capacity leaks on the side that had said yes.
func TestCrossShardEgressRefusal(t *testing.T) {
	tier := newTier(t, 2, 10*units.BytePerSecond)
	_, _, from, to := tier.pairs(t)
	inIdx := tier.rt.Ring().OwnerIn(from)

	req := submitReq(from, to)
	// Ingress-side admission searches the ingress profile only (GB/s —
	// plenty); the starved egress capacity must refuse the proposal.
	res, code := tier.submit(t, req)
	if code != http.StatusOK || res.Accepted {
		t.Fatalf("submit = %d %+v, want 200 rejection", code, res)
	}
	if res.Routed != wire.RoutedCrossShard || res.Reason == "" {
		t.Errorf("rejection = %+v, want cross_shard marker and a reason", res)
	}
	ev := tier.events[inIdx].waitKind(t, trace.EventHoldAbort, trace.EventHoldExpire)
	if ev.Side != trace.HoldSideIngress {
		t.Errorf("rolled-back hold side = %q, want ingress", ev.Side)
	}
	// The abort is asynchronous; once observed, nothing may stay booked.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if held, confirmed := tier.servers[inIdx].HoldStats(); held == 0 && confirmed == 0 {
			break
		}
		if time.Now().After(deadline) {
			held, confirmed := tier.servers[inIdx].HoldStats()
			t.Fatalf("ingress shard still holds %d held / %d confirmed", held, confirmed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrossShardCancel: cancelling a cross-shard admission by its visible
// ID aborts the holds on both owners.
func TestCrossShardCancel(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	_, _, from, to := tier.pairs(t)
	inIdx, egIdx := tier.rt.Ring().OwnerIn(from), tier.rt.Ring().OwnerEg(to)

	res, code := tier.submit(t, submitReq(from, to))
	if code != http.StatusCreated || !res.Accepted {
		t.Fatalf("submit = %d %+v", code, res)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/requests/%d", tier.web.URL, res.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled wire.ReservationJSON
	json.NewDecoder(resp.Body).Decode(&cancelled)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cancelled.State != string(server.StateCancelled) {
		t.Fatalf("cancel = %d %+v", resp.StatusCode, cancelled)
	}
	if cancelled.Routed != wire.RoutedCrossShard {
		t.Errorf("cancel routed = %q, want cross_shard", cancelled.Routed)
	}
	for _, idx := range []int{inIdx, egIdx} {
		tier.events[idx].waitKind(t, trace.EventHoldAbort)
	}
}

// TestBatchSplitOrdering: a mixed batch scatters across both shards and
// the cross-shard path, yet the response lines up with the request —
// even when one shard is made much slower than everything else, so
// completion order is guaranteed to differ from request order.
func TestBatchSplitOrdering(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	sFrom, sTo, xFrom, xTo := tier.pairs(t)
	ring := tier.rt.Ring()
	slowShard := ring.OwnerIn(sFrom)

	// Rebuild the router with a delaying proxy in front of slowShard's
	// batch endpoint: its slice finishes last although it appears first.
	slow := httptest.NewServer(pinHTTP(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			time.Sleep(300 * time.Millisecond)
		}
		tier.servers[slowShard].Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()
	var shards []ShardConfig
	for i, ts := range tier.backs {
		url := ts.URL
		if i == slowShard {
			url = slow.URL
		}
		shards = append(shards, ShardConfig{Name: fmt.Sprintf("s%d", i), Endpoints: []string{url}})
	}
	rt, err := New(Config{Shards: shards, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(rt.Handler())
	defer web.Close()

	// Find a same-shard pair on the OTHER (fast) shard too, if one exists.
	otherFrom, otherTo, foundOther := -1, -1, false
	for i := 0; i < testPoints && !foundOther; i++ {
		for e := 0; e < testPoints; e++ {
			if ring.OwnerIn(i) == ring.OwnerEg(e) && ring.OwnerIn(i) != slowShard {
				otherFrom, otherTo, foundOther = i, e, true
				break
			}
		}
	}

	reqs := []wire.SubmitRequest{
		submitReq(sFrom, sTo), // slow shard
		submitReq(xFrom, xTo), // cross
		{From: 0, To: 0, VolumeBytes: 1e9, Volume: "1GB", MaxRateBps: 1e8, DeadlineS: 1000}, // malformed: both volume forms
		submitReq(sFrom, sTo), // slow shard again
	}
	if foundOther {
		reqs = append(reqs, submitReq(otherFrom, otherTo)) // fast shard
	}
	body, _ := json.Marshal(wire.BatchRequest{Requests: reqs})
	resp, err := http.Post(web.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out wire.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(out.Results) != len(reqs) {
		t.Fatalf("batch = %d, %d results, want %d", resp.StatusCode, len(out.Results), len(reqs))
	}

	wantShard := func(i, shard int) {
		t.Helper()
		it := out.Results[i]
		if it.Error != "" || it.Reservation == nil || !it.Reservation.Accepted {
			t.Fatalf("item %d = %+v, want accepted", i, it)
		}
		if it.Reservation.ID%2 != shard {
			t.Errorf("item %d landed on shard %d, want %d", i, it.Reservation.ID%2, shard)
		}
	}
	wantShard(0, slowShard)
	if it := out.Results[1]; it.Reservation == nil || it.Reservation.Routed != wire.RoutedCrossShard {
		t.Errorf("item 1 = %+v, want cross_shard", it)
	}
	if it := out.Results[2]; it.Error == "" || it.Reservation != nil {
		t.Errorf("item 2 = %+v, want per-slot error for the malformed request", it)
	}
	wantShard(3, slowShard)
	if foundOther {
		wantShard(4, ring.OwnerIn(otherFrom))
	}
}

// TestBinaryBatchThroughRouter: the GBB1/GBR1 codec crosses the router
// with the same split/namespace semantics as JSON, the cross-shard marker
// of accepted and rejected decisions included.
func TestBinaryBatchThroughRouter(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	sFrom, sTo, xFrom, xTo := tier.pairs(t)

	infeasible := submitReq(xFrom, xTo)
	infeasible.VolumeBytes = 1e12 // 1 TB in 1000 s at 100 MB/s: a domain rejection
	subs := make([]wire.Submission, 3)
	for i, req := range []wire.SubmitRequest{submitReq(sFrom, sTo), submitReq(xFrom, xTo), infeasible} {
		var err error
		if subs[i], err = req.Wire(); err != nil {
			t.Fatal(err)
		}
	}
	blob := wire.AppendBatchRequest(nil, subs)
	resp, err := http.Post(tier.web.URL+"/v1/batch", wire.ContentType, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch = %d: %s", resp.StatusCode, data)
	}
	items, err := wire.DecodeBatchResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("items = %d, want 3", len(items))
	}
	for i, it := range items {
		if it.Error != "" || it.Reservation == nil || it.Reservation.Accepted != (i < 2) {
			t.Fatalf("item %d = %+v, want a decision, accepted for the first two", i, it)
		}
	}
	if got, want := items[0].Reservation.ID%2, tier.rt.Ring().OwnerIn(sFrom); got != want {
		t.Errorf("same-shard item on shard %d, want %d", got, want)
	}
	if got, want := items[1].Reservation.ID%2, tier.rt.Ring().OwnerIn(xFrom); got != want {
		t.Errorf("cross item ID from shard %d, want ingress owner %d", got, want)
	}
	if r := items[0].Reservation.Routed; r != "" {
		t.Errorf("same-shard item routed %q, want no marker", r)
	}
	for _, i := range []int{1, 2} {
		if r := items[i].Reservation; r.Routed != wire.RoutedCrossShard {
			t.Errorf("cross-shard item %d (accepted=%v) routed %q, want %q", i, r.Accepted, r.Routed, wire.RoutedCrossShard)
		}
	}
}

// TestFramedSubmitThroughRouter: a client.Client pointed at the router
// submits in frames; same-shard records travel on to their owner as
// frames, cross-shard ones drive the hold waves as list frames, and the
// decisions — marker, namespaced ID, idempotent replay — are the ones the
// JSON face gives. Nothing on the request plane reaches a shard as JSON.
// The shards are pinned to HTTP so every call is counted; the stream twin
// is TestFramedSubmitThroughRouterStreams.
func TestFramedSubmitThroughRouter(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	tier.plain = true
	framedSubmitsThroughRouter(t, tier)
	tier.mu.Lock()
	defer tier.mu.Unlock()
	for _, route := range []string{"POST /v1/requests", "POST /v1/reserve", "POST /v1/confirm"} {
		if tier.shardCalls[route+" framed"] == 0 {
			t.Errorf("no framed %s reached a shard: %v", route, tier.shardCalls)
		}
	}
}

// TestFramedSubmitThroughRouterStreams is the same traffic with the call
// streams on: each shard sees one framed HTTP call, the one that upgraded
// the router's connection, and everything after it rides the stream.
func TestFramedSubmitThroughRouterStreams(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	framedSubmitsThroughRouter(t, tier)
	tier.mu.Lock()
	defer tier.mu.Unlock()
	n := 0
	for _, k := range tier.shardCalls {
		n += k
	}
	if n != 2 {
		t.Errorf("%d HTTP calls reached the two shards, want one upgrading call each: %v", n, tier.shardCalls)
	}
}

func framedSubmitsThroughRouter(t *testing.T, tier *testTier) {
	sFrom, sTo, xFrom, xTo := tier.pairs(t)
	ring := tier.rt.Ring()
	c := client.New(tier.web.URL, nil)
	ctx := context.Background()

	same := submitReq(sFrom, sTo)
	same.IdempotencyKey = "same-1"
	res, err := c.Submit(ctx, same)
	if err != nil || !res.Accepted || res.Routed != "" || res.ID%2 != ring.OwnerIn(sFrom) {
		t.Fatalf("same-shard submit = %+v, %v", res, err)
	}
	if again, err := c.Submit(ctx, same); err != nil || again.ID != res.ID || again.RateBps != res.RateBps {
		t.Errorf("same-shard replay = %+v, %v; first answer %+v", again, err, res)
	}
	if got, err := tier.servers[ring.OwnerIn(sFrom)].Lookup(request.ID(res.ID / 2)); err != nil || !got.Accepted {
		t.Errorf("owner does not know reservation %d: %+v, %v", res.ID, got, err)
	}

	cross := submitReq(xFrom, xTo)
	cross.IdempotencyKey = "cross-1"
	res, err = c.Submit(ctx, cross)
	if err != nil || !res.Accepted || res.Routed != wire.RoutedCrossShard || res.ID%2 != ring.OwnerIn(xFrom) {
		t.Fatalf("cross-shard submit = %+v, %v", res, err)
	}
	waitHolds(t, tier.servers[ring.OwnerIn(xFrom)], "ingress owner", 0, 1)
	waitHolds(t, tier.servers[ring.OwnerEg(xTo)], "egress owner", 0, 1)

	refused := submitReq(xFrom, xTo)
	refused.VolumeBytes = 1e12
	res, err = c.Submit(ctx, refused)
	if err != nil || res.Accepted || res.Routed != wire.RoutedCrossShard || res.Reason == "" {
		t.Errorf("cross-shard rejection = %+v, %v; want the marker and a reason", res, err)
	}

	tier.mu.Lock()
	defer tier.mu.Unlock()
	for call, n := range tier.shardCalls {
		if strings.HasPrefix(call, "POST ") && strings.HasSuffix(call, " json") {
			t.Errorf("%d × %s reached a shard; the request plane between processes is framed", n, call)
		}
	}
}

// TestCrossShardBlackholeAbort: the egress owner's link black-holes
// mid-protocol (bytes vanish, no errors — a real partition). The router's
// egress RESERVE times out, the submission fails upstream, and the
// ingress-side hold — already booked — must roll back (the router's abort
// or, had that failed too, the shard-side TTL), leaving zero capacity
// held.
func TestCrossShardBlackholeAbort(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	_, _, from, to := tier.pairs(t)
	ring := tier.rt.Ring()
	inIdx, egIdx := ring.OwnerIn(from), ring.OwnerEg(to)

	proxy, err := chaosnet.New("eg-link", "127.0.0.1:0", tier.backs[egIdx].Listener.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	var shards []ShardConfig
	for i, ts := range tier.backs {
		url := ts.URL
		if i == egIdx {
			url = proxy.URL()
		}
		shards = append(shards, ShardConfig{Name: fmt.Sprintf("s%d", i), Endpoints: []string{url}})
	}
	rt, err := New(Config{
		Shards: shards, Seed: 1,
		HoldTTL: 2 * time.Second,
		Client:  client.Options{CallTimeout: 300 * time.Millisecond, MaxRetries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(rt.Handler())
	defer web.Close()

	// Cut the link both ways before the submission: the ingress RESERVE
	// succeeds (different shard), the egress RESERVE goes into the void.
	proxy.SetRules(chaosnet.Rules{CutToTarget: true, CutToClient: true})

	body, _ := json.Marshal(submitReq(from, to))
	resp, err := http.Post(web.URL+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Fatalf("blackholed submit = %d, want upstream failure", resp.StatusCode)
	}

	// The ingress hold must resolve — abort (router rollback) or expire
	// (TTL backstop) — and release its booking.
	ev := tier.events[inIdx].waitKind(t, trace.EventHoldAbort, trace.EventHoldExpire)
	if ev.Side != trace.HoldSideIngress {
		t.Errorf("rolled-back side = %q, want ingress", ev.Side)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		held, confirmed := tier.servers[inIdx].HoldStats()
		if held == 0 && confirmed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity leaked: %d held / %d confirmed on the ingress shard", held, confirmed)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Heal the link: the same pair admits cleanly end to end, proving the
	// rolled-back capacity is reusable.
	proxy.SetRules(chaosnet.Rules{})
	body, _ = json.Marshal(submitReq(from, to))
	resp, err = http.Post(web.URL+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res wire.ReservationJSON
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || !res.Accepted {
		t.Fatalf("post-heal submit = %d %+v, want accepted", resp.StatusCode, res)
	}
}

// TestCallerHangUpLeavesTheShardStream: two callers share the router's
// call stream to a shard. Caller A hanging up while the shard holds both
// calls must not end that stream under caller B: the shard answers B's
// call once, on the one stream it upgraded, and never sees it again.
func TestCallerHangUpLeavesTheShardStream(t *testing.T) {
	var (
		ss      callplane.Streams
		offers  atomic.Int64
		mu      sync.Mutex
		calls   = map[string]int{} // the shard's calls, by idempotency key
		parked  = make(chan string, 8)
		release = make(chan struct{})
	)
	h := func(_ context.Context, c *callplane.Call) callplane.Reply {
		ws, err := c.DecodeSubmit()
		if err != nil {
			return callplane.ErrorReply(http.StatusBadRequest, err)
		}
		mu.Lock()
		calls[ws.IdempotencyKey]++
		mu.Unlock()
		if ws.IdempotencyKey != "warm" {
			parked <- ws.IdempotencyKey
			<-release
		}
		res := wire.ReservationJSON{ID: 1, Accepted: true, State: wire.StateActive}
		c.Buf.B = wire.AppendBatchItems(c.Buf.B[:0], []wire.BatchItemJSON{{Reservation: &res}})
		return callplane.Reply{Status: http.StatusCreated}
	}
	route := callplane.CallRoute(&ss, h, wire.OpSubmit, callplane.JSONFace{})
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if callplane.WantsUpgrade(r, wire.CallProtocol) {
			offers.Add(1)
		}
		route.ServeHTTP(w, r)
	}))
	defer shard.Close()
	defer ss.Close()
	rt, err := New(Config{
		Shards: []ShardConfig{{Name: "s0", Endpoints: []string{shard.URL}}},
		Client: client.Options{BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	releaseAll := sync.OnceFunc(func() { close(release) })
	defer releaseAll()

	submit := func(ctx context.Context, key string) callplane.Reply {
		ws := wire.Submission{From: 0, To: 1, Volume: 1e9, MaxRate: 1e8, Deadline: 60, RelDeadline: true, IdempotencyKey: key}
		c := callplane.Call{Op: wire.OpSubmit, Buf: wire.NewFrameBuf()}
		defer c.Buf.Release()
		c.Buf.B = wire.AppendSubmitRequest(c.Buf.B, &ws)
		return rt.Call(ctx, &c)
	}
	if rep := submit(context.Background(), "warm"); rep.Status != http.StatusCreated {
		t.Fatalf("warm-up submit answered %d %v", rep.Status, rep.JSON)
	}
	ctxA, hangUp := context.WithCancel(context.Background())
	repA, repB := make(chan callplane.Reply, 1), make(chan callplane.Reply, 1)
	go func() { repA <- submit(ctxA, "a") }()
	go func() { repB <- submit(context.Background(), "b") }()
	for range 2 {
		<-parked
	}
	hangUp()
	select {
	case key := <-parked:
		t.Errorf("the shard saw %q again after caller A hung up", key)
	case <-time.After(300 * time.Millisecond):
	}
	releaseAll()
	if rep := <-repB; rep.Status != http.StatusCreated {
		t.Errorf("caller B answered %d %v, want 201", rep.Status, rep.JSON)
	}
	<-repA
	mu.Lock()
	defer mu.Unlock()
	if calls["b"] != 1 {
		t.Errorf("the shard answered caller B's call %d times, want once", calls["b"])
	}
	if n := offers.Load(); n != 1 {
		t.Errorf("the shard saw %d call-stream offers, want the warm-up's alone", n)
	}
}
