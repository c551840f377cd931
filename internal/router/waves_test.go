package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"gridbw/internal/chaosnet"
	"gridbw/internal/check"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// owned lists the ingress (or egress) points the ring gives each shard.
func (tier *testTier) owned(egress bool) [][]int {
	ring := tier.rt.Ring()
	out := make([][]int, ring.NumShards())
	for p := 0; p < testPoints; p++ {
		o := ring.OwnerIn(p)
		if egress {
			o = ring.OwnerEg(p)
		}
		out[o] = append(out[o], p)
	}
	return out
}

func (tier *testTier) batch(t *testing.T, url string, reqs []wire.SubmitRequest) []wire.BatchItemJSON {
	t.Helper()
	body, _ := json.Marshal(wire.BatchRequest{Requests: reqs})
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wire.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Results) != len(reqs) {
		t.Fatalf("batch = %d, %d results, want %d", resp.StatusCode, len(out.Results), len(reqs))
	}
	return out.Results
}

// waitHolds polls one shard's HoldStats until it reports want — the
// router's aborts are detached from the answer.
func waitHolds(t *testing.T, srv *server.Server, name string, wantHeld, wantConfirmed int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		held, confirmed := srv.HoldStats()
		if held == wantHeld && confirmed == wantConfirmed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %s holds = %d held / %d confirmed, want %d/%d", name, held, confirmed, wantHeld, wantConfirmed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// holdCounter reads one gridbwrouter_hold_{calls,items}_total sample.
func holdCounter(t *testing.T, page, family, shard, op string) int {
	t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^gridbwrouter_hold_%s_total\{shard=%q,op=%q\} (\d+)$`, family, shard, op))
	m := re.FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("no gridbwrouter_hold_%s_total{shard=%q,op=%q} in:\n%s", family, shard, op, page)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// settledMetrics fetches the metrics page once the detached aborts have
// been counted: a shard applies an abort before the router, which counts a
// call when its answer is in, hears back.
func settledMetrics(t *testing.T, url, shard string, wantAbortCalls int) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		page := metricsPage(t, url)
		if holdCounter(t, page, "calls", shard, "abort") == wantAbortCalls || time.Now().After(deadline) {
			return page
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func metricsPage(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(page)
}

// TestBatchDecisionsMatchSequential is the metamorphic check on batching:
// on a frozen clock, a mixed batch — same-shard slices, cross-shard items
// in both directions, contention on an ingress and on an egress point, one
// idempotency key used twice — must decide every item exactly as the same
// items submitted one at a time in request order. The hold counters then
// show what the batch saved: one call per shard per wave against one per
// item.
func TestBatchDecisionsMatchSequential(t *testing.T) {
	frozen := func() time.Time { return time.Unix(1000, 0) }
	build := func() *testTier {
		return newTierWith(t, 2, func(_ int, cfg *server.Config) {
			cfg.Clock = frozen
			cfg.Policy = "f=1" // bw = MaxRate: two 400 MB/s grants fill a 1 GB/s point for a third
		})
	}
	batched, single := build(), build()

	ins, egs := batched.owned(false), batched.owned(true)
	a, b := 0, 1 // a: the shard with ingress points to spare
	if len(ins[a]) < len(ins[b]) {
		a, b = b, a
	}
	if len(ins[a]) < 4 || len(ins[b]) < 2 || len(egs[a]) < 2 || len(egs[b]) < 3 {
		t.Fatalf("ring split ingress %v egress %v leaves too few points for the scenario", ins, egs)
	}
	req := func(from, to int, key string) wire.SubmitRequest {
		return wire.SubmitRequest{
			From: from, To: to, IdempotencyKey: key,
			VolumeBytes: 4e9, MaxRateBps: 4e8, DeadlineIn: "100s",
		}
	}
	reqs := []wire.SubmitRequest{
		req(ins[a][3], egs[a][1], ""),    // 0 same-shard on a
		req(ins[a][0], egs[b][0], ""),    // 1 cross a→b
		req(ins[a][0], egs[b][0], ""),    // 2 cross a→b, same points: both fit
		req(ins[b][0], egs[a][0], ""),    // 3 cross b→a
		req(ins[a][0], egs[b][0], ""),    // 4 third on that ingress point: refused by a
		req(ins[a][3], egs[a][1], ""),    // 5 same-shard on a again
		req(ins[a][2], egs[b][1], "dup"), // 6 cross a→b under a caller's key
		req(ins[a][2], egs[b][1], "dup"), // 7 the same key again: the same decision, one hold
		req(ins[a][1], egs[b][0], ""),    // 8 third on that egress point: refused by b, a rolls back
		req(ins[b][1], egs[b][2], ""),    // 9 same-shard on b
	}
	wantAccepted := []bool{true, true, true, true, false, true, true, true, false, true}
	wantCross := []bool{false, true, true, true, true, false, true, true, true, false}

	got := batched.batch(t, batched.web.URL, reqs)
	for i, r := range reqs {
		want, code := single.submit(t, r)
		if code != http.StatusCreated && code != http.StatusOK {
			t.Fatalf("item %d alone = HTTP %d", i, code)
		}
		it := got[i]
		if it.Error != "" || it.Reservation == nil {
			t.Fatalf("item %d in the batch = %+v, want a decision", i, it)
		}
		g := *it.Reservation
		if g.Accepted != want.Accepted || g.RateBps != want.RateBps || g.SigmaS != want.SigmaS ||
			g.TauS != want.TauS || g.Routed != want.Routed || (g.Reason == "") != (want.Reason == "") {
			t.Errorf("item %d: batched %+v, alone %+v", i, g, want)
		}
		if g.Accepted != wantAccepted[i] || (g.Routed == wire.RoutedCrossShard) != wantCross[i] {
			t.Errorf("item %d = %+v, want accepted=%v cross=%v", i, g, wantAccepted[i], wantCross[i])
		}
	}
	if got[6].Reservation.ID != got[7].Reservation.ID {
		t.Errorf("one key answered two reservations: %d and %d", got[6].Reservation.ID, got[7].Reservation.ID)
	}
	// Items 1, 2, 3 and the one hold of 6+7 committed on both owners;
	// nothing else may stay booked once the aborts have landed.
	for _, tier := range []*testTier{batched, single} {
		for i, srv := range tier.servers {
			waitHolds(t, srv, fmt.Sprintf("s%d", i), 0, 4)
		}
	}

	sa, sb := fmt.Sprintf("s%d", a), fmt.Sprintf("s%d", b)
	type row struct {
		shard, op    string
		calls, items int
	}
	bp, sp := settledMetrics(t, batched.web.URL, sa, 1), settledMetrics(t, single.web.URL, sa, 1)
	for _, w := range []row{
		{sa, "reserve", 2, 7}, // wave 1: items 1 2 4 6 7 8; wave 2: item 3
		{sb, "reserve", 2, 6}, // wave 1: item 3; wave 2: items 1 2 6 7 8
		{sa, "confirm", 1, 5}, // items 1 2 6 7 ingress-side, 3 egress-side
		{sb, "confirm", 1, 5},
		{sa, "abort", 1, 1}, // item 8's ingress side
		{sb, "abort", 0, 0},
	} {
		if c, n := holdCounter(t, bp, "calls", w.shard, w.op), holdCounter(t, bp, "items", w.shard, w.op); c != w.calls || n != w.items {
			t.Errorf("batched %s %s: %d calls carrying %d holds, want %d/%d", w.shard, w.op, c, n, w.calls, w.items)
		}
		if c, n := holdCounter(t, sp, "calls", w.shard, w.op), holdCounter(t, sp, "items", w.shard, w.op); c != w.items || n != w.items {
			t.Errorf("one at a time %s %s: %d calls carrying %d holds, want %d/%d", w.shard, w.op, c, n, w.items, w.items)
		}
	}
	for _, page := range []string{bp, sp} {
		for _, line := range []string{
			"gridbwrouter_cross_shard_total 7",
			`gridbwrouter_cross_shard_outcomes_total{outcome="confirmed"} 5`,
			`gridbwrouter_cross_shard_outcomes_total{outcome="rejected"} 2`,
		} {
			if !bytes.Contains([]byte(page), []byte(line+"\n")) {
				t.Errorf("metrics page lacks %q: cross-shard outcomes are counted per item", line)
			}
		}
	}
}

// walTier is two WAL-backed shards whose logs the checker can read back.
type walTier struct {
	*testTier
	dirs []string
	logs []*wal.Log
}

func newWALTier(t *testing.T) *walTier {
	t.Helper()
	wt := &walTier{}
	wt.testTier = newTierWith(t, 2, func(_ int, cfg *server.Config) {
		dir := t.TempDir()
		l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		cfg.WAL = l
		wt.dirs = append(wt.dirs, dir)
		wt.logs = append(wt.logs, l)
	})
	return wt
}

// verify closes the shards and runs the multi-shard checker over the
// client history and both WALs.
func (wt *walTier) verify(t *testing.T, ops []check.Op) {
	t.Helper()
	var shards []check.ShardFinal
	for i, srv := range wt.servers {
		if err := srv.VerifyInvariant(); err != nil {
			t.Errorf("shard s%d: %v", i, err)
		}
		srv.Close()
		wt.logs[i].Close()
		l, _, err := wal.Open(wt.dirs[i], wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		events, _, err := server.ReadWALEvents(l, wal.Pos{})
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		bps := make([]float64, testPoints)
		for p := range bps {
			bps[p] = float64(units.GBps)
		}
		shards = append(shards, check.ShardFinal{
			Name:  fmt.Sprintf("s%d", i),
			Final: check.Final{Events: events, IngressBps: bps, EgressBps: bps},
		})
	}
	for _, v := range check.VerifyShards(ops, shards) {
		t.Errorf("checker: %s", v)
	}
}

// history turns batch answers into the checker's client ops.
func history(reqs []wire.SubmitRequest, items []wire.BatchItemJSON) []check.Op {
	var ops []check.Op
	for i, it := range items {
		op := check.Op{Node: "rt", Kind: check.OpSubmit, Key: reqs[i].IdempotencyKey, Err: it.Error}
		if r := it.Reservation; r != nil {
			op.ID, op.Accepted, op.Routed = r.ID, r.Accepted, r.Routed
			op.RateBps, op.SigmaS, op.TauS = r.RateBps, r.SigmaS, r.TauS
		}
		ops = append(ops, op)
	}
	return ops
}

// TestCrossShardBlackholeAbortBatch is TestCrossShardBlackholeAbort for a
// batch: the egress owner's link black-holes after wave one's RESERVE list
// has booked the ingress sides and before wave two can reach it. Every
// cross-shard item must answer an error or a rejection, the one batched
// abort (or the TTL) must return the reachable shard to zero holds, and
// the checker must find both WALs consistent.
func TestCrossShardBlackholeAbortBatch(t *testing.T) {
	wt := newWALTier(t)
	ins, egs := wt.owned(false), wt.owned(true)
	inIdx, egIdx := 0, 1
	if len(ins[inIdx]) < len(ins[egIdx]) {
		inIdx, egIdx = egIdx, inIdx
	}
	if len(ins[inIdx]) < 3 || len(egs[inIdx]) < 1 || len(egs[egIdx]) < 2 {
		t.Fatalf("ring split ingress %v egress %v leaves too few points for the scenario", ins, egs)
	}

	proxy, err := chaosnet.New("eg-link", "127.0.0.1:0", wt.backs[egIdx].Listener.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// The egress owner's link is cut the moment the ingress owner is first
	// called, before it answers: wave two walks into the void. The first
	// call may be the batch's same-shard slice rather than the RESERVE
	// list, and the call stream it opens then carries the list past this
	// handler; cutting after the list was decided missed it then.
	var cut sync.Once
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cut.Do(func() { proxy.SetRules(chaosnet.Rules{CutToTarget: true, CutToClient: true}) })
		wt.servers[inIdx].Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	shards := make([]ShardConfig, 2)
	shards[inIdx] = ShardConfig{Name: fmt.Sprintf("s%d", inIdx), Endpoints: []string{front.URL}}
	shards[egIdx] = ShardConfig{Name: fmt.Sprintf("s%d", egIdx), Endpoints: []string{proxy.URL()}}
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

	reqs := []wire.SubmitRequest{
		submitReq(ins[inIdx][0], egs[egIdx][0]),
		submitReq(ins[inIdx][2], egs[inIdx][0]), // same-shard on the reachable shard
		submitReq(ins[inIdx][1], egs[egIdx][0]),
		submitReq(ins[inIdx][0], egs[egIdx][1]),
	}
	for i := range reqs {
		reqs[i].IdempotencyKey = fmt.Sprintf("bh-%d", i)
	}
	items := wt.batch(t, web.URL, reqs)
	for i, it := range items {
		if i == 1 {
			if it.Error != "" || !it.Reservation.Accepted {
				t.Errorf("same-shard item on the reachable shard = %+v, want accepted", it)
			}
			continue
		}
		if it.Error == "" && (it.Reservation == nil || it.Reservation.Accepted) {
			t.Errorf("cross-shard item %d = %+v, want an error or a rejection", i, it)
		}
	}
	waitHolds(t, wt.servers[inIdx], shards[inIdx].Name, 0, 0)
	page := settledMetrics(t, web.URL, shards[inIdx].Name, 1)
	if c, n := holdCounter(t, page, "calls", shards[inIdx].Name, "abort"), holdCounter(t, page, "items", shards[inIdx].Name, "abort"); c != 1 || n != 3 {
		t.Errorf("ingress owner saw %d abort calls carrying %d holds, want the one batched call of 3", c, n)
	}

	// Heal the link: the same pairs admit end to end on the rolled-back
	// capacity, committing on both owners.
	proxy.SetRules(chaosnet.Rules{})
	waitHolds(t, wt.servers[egIdx], shards[egIdx].Name, 0, 0)
	retry := []wire.SubmitRequest{reqs[0], reqs[2], reqs[3]}
	for i := range retry {
		retry[i].IdempotencyKey = fmt.Sprintf("healed-%d", i)
	}
	healed := wt.batch(t, web.URL, retry)
	for i, it := range healed {
		if it.Error != "" || !it.Reservation.Accepted || it.Reservation.Routed != wire.RoutedCrossShard {
			t.Errorf("post-heal item %d = %+v, want a cross-shard admission", i, it)
		}
	}
	wt.verify(t, append(history(reqs, items), history(retry, healed)...))
}

// TestConfirmListPartialConflict: one hold of a CONFIRM list has rolled
// back on its egress owner (a TTL lapse, a racing cancel) by the time wave
// three arrives. That item alone answers a rejection and its confirmed
// ingress side gets the compensating abort; its neighbours in the same
// lists commit.
func TestConfirmListPartialConflict(t *testing.T) {
	wt := newWALTier(t)
	ins, egs := wt.owned(false), wt.owned(true)
	inIdx, egIdx := 0, 1
	if len(ins[inIdx]) < len(ins[egIdx]) {
		inIdx, egIdx = egIdx, inIdx
	}
	if len(ins[inIdx]) < 3 || len(egs[egIdx]) < 1 {
		t.Fatalf("ring split ingress %v egress %v leaves too few points for the scenario", ins, egs)
	}
	// The egress owner loses the victim's hold just before it decides the
	// CONFIRM list that names it.
	front := httptest.NewServer(pinHTTP(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/confirm" {
			if _, err := wt.servers[egIdx].HoldAbort([]wire.HoldRefJSON{{Hold: "x-victim"}}); err != nil {
				t.Error(err)
			}
		}
		wt.servers[egIdx].Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	shards := make([]ShardConfig, 2)
	shards[inIdx] = ShardConfig{Name: fmt.Sprintf("s%d", inIdx), Endpoints: []string{wt.backs[inIdx].URL}}
	shards[egIdx] = ShardConfig{Name: fmt.Sprintf("s%d", egIdx), Endpoints: []string{front.URL}}
	rt, err := New(Config{Shards: shards, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(rt.Handler())
	defer web.Close()

	reqs := []wire.SubmitRequest{
		submitReq(ins[inIdx][0], egs[egIdx][0]),
		submitReq(ins[inIdx][1], egs[egIdx][0]),
		submitReq(ins[inIdx][2], egs[egIdx][0]),
	}
	reqs[0].IdempotencyKey, reqs[1].IdempotencyKey, reqs[2].IdempotencyKey = "first", "victim", "last"
	items := wt.batch(t, web.URL, reqs)
	for i, it := range items {
		if it.Error != "" || it.Reservation == nil {
			t.Fatalf("item %d = %+v, want a decision", i, it)
		}
		if want := i != 1; it.Reservation.Accepted != want {
			t.Errorf("item %d accepted = %v, want %v: %+v", i, it.Reservation.Accepted, want, it.Reservation)
		}
	}
	if r := items[1].Reservation; r.Reason == "" || r.Routed != wire.RoutedCrossShard {
		t.Errorf("victim = %+v, want a reasoned cross-shard rejection", r)
	}
	// The victim's ingress side was confirmed by the same wave; the
	// compensating abort must release it and leave the neighbours alone.
	waitHolds(t, wt.servers[inIdx], shards[inIdx].Name, 0, 2)
	waitHolds(t, wt.servers[egIdx], shards[egIdx].Name, 0, 2)
	wt.verify(t, history(reqs, items))
}

// TestStuckShardSparesHealthyPairs: with three shards, one that swallows
// RESERVE lists must cost only the items that touch it. The batch carries a
// pair between the two healthy shards, a pair whose ingress owner is the
// stuck shard (stalling wave one) and a pair whose egress owner is (stalling
// wave two); the healthy pair must still commit on both owners — its holds
// may not lapse while a wave waits — and the other two must answer errors a
// client can retry, leaving nothing booked.
func TestStuckShardSparesHealthyPairs(t *testing.T) {
	tier := newTier(t, 3, units.GBps)
	const stuck = 2
	ring := tier.rt.Ring()
	// pair finds points whose owners satisfy want.
	pair := func(want func(in, eg int) bool) wire.SubmitRequest {
		for i := 0; i < testPoints; i++ {
			for e := 0; e < testPoints; e++ {
				if in, eg := ring.OwnerIn(i), ring.OwnerEg(e); in != eg && want(in, eg) {
					return submitReq(i, e)
				}
			}
		}
		t.Fatalf("seed gives no such pair over %d points", testPoints)
		panic("unreachable")
	}
	reqs := []wire.SubmitRequest{
		pair(func(in, eg int) bool { return in != stuck && eg != stuck }),
		pair(func(in, eg int) bool { return in == stuck }),
		pair(func(in, eg int) bool { return eg == stuck }),
	}

	release := make(chan struct{})
	front := httptest.NewServer(pinHTTP(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/reserve" {
			_, _ = io.Copy(io.Discard, r.Body) // lets the server notice the caller hanging up
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		tier.servers[stuck].Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	defer close(release)
	shards := make([]ShardConfig, 3)
	for i := range shards {
		shards[i] = ShardConfig{Name: fmt.Sprintf("s%d", i), Endpoints: []string{tier.backs[i].URL}}
	}
	shards[stuck].Endpoints = []string{front.URL}
	rt, err := New(Config{Shards: shards, Seed: 1, HoldTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(rt.Handler())
	defer web.Close()

	t0 := time.Now()
	items := tier.batch(t, web.URL, reqs)
	if took := time.Since(t0); took >= time.Second {
		t.Errorf("batch took %v: the healthy pair's holds outlived their TTL only by luck", took)
	}
	if it := items[0]; it.Error != "" || !it.Reservation.Accepted || it.Reservation.Routed != wire.RoutedCrossShard {
		t.Errorf("pair between healthy shards = %+v, want a cross-shard admission", it)
	}
	for i, it := range items[1:] {
		if it.Error == "" {
			t.Errorf("item %d touching the stuck shard = %+v, want an error", i+1, it.Reservation)
		}
	}
	// One confirmed hold per owner of the healthy pair; the ingress side
	// booked for the pair whose egress owner is stuck is rolled back.
	for i, srv := range tier.servers {
		want := 1
		if i == stuck {
			want = 0
		}
		waitHolds(t, srv, shards[i].Name, 0, want)
	}
}

// TestRetryTimeoutAbortsBothSides replays the trace the hold model checker
// found against crossShard's old wave-1 rule: a cross-shard submission is
// reserved on both owners, confirmed on both and acknowledged; the client
// retries it under the same idempotency key, and the retry's RESERVE to the
// ingress owner times out. The router must then abort both sides. Aborting
// the ingress alone rolled back the confirmed ingress hold and left the
// egress booked until τ: an acknowledged reservation cancelled on one side.
func TestRetryTimeoutAbortsBothSides(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	_, _, from, to := tier.pairs(t)
	ring := tier.rt.Ring()
	inIdx, egIdx := ring.OwnerIn(from), ring.OwnerEg(to)

	var stall sync.Mutex
	stalled := false
	release := make(chan struct{})
	front := httptest.NewServer(pinHTTP(func(w http.ResponseWriter, r *http.Request) {
		stall.Lock()
		swallow := stalled && r.URL.Path == "/v1/reserve"
		stall.Unlock()
		if swallow {
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		tier.servers[inIdx].Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	defer close(release)
	shards := make([]ShardConfig, 2)
	for i := range shards {
		shards[i] = ShardConfig{Name: fmt.Sprintf("s%d", i), Endpoints: []string{tier.backs[i].URL}}
	}
	shards[inIdx].Endpoints = []string{front.URL}
	rt, err := New(Config{Shards: shards, Seed: 1, HoldTTL: 800 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(rt.Handler())
	defer web.Close()
	submit := func() (wire.ReservationJSON, int) {
		req := submitReq(from, to)
		req.IdempotencyKey = "acked"
		body, _ := json.Marshal(req)
		resp, err := http.Post(web.URL+"/v1/requests", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res wire.ReservationJSON
		_ = json.NewDecoder(resp.Body).Decode(&res)
		return res, resp.StatusCode
	}

	if res, code := submit(); code != http.StatusCreated || !res.Accepted || res.Routed != wire.RoutedCrossShard {
		t.Fatalf("submit = %d %+v, want an acknowledged cross-shard admission", code, res)
	}
	waitHolds(t, tier.servers[inIdx], shards[inIdx].Name, 0, 1)
	waitHolds(t, tier.servers[egIdx], shards[egIdx].Name, 0, 1)

	stall.Lock()
	stalled = true
	stall.Unlock()
	if res, code := submit(); code < 500 {
		t.Fatalf("retry with the ingress owner's RESERVE timing out = %d %+v, want a failure", code, res)
	}
	// Both or neither: the retry failed, so the pair goes on neither side.
	waitHolds(t, tier.servers[inIdx], shards[inIdx].Name, 0, 0)
	waitHolds(t, tier.servers[egIdx], shards[egIdx].Name, 0, 0)
}
