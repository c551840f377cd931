package client

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
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// TestJSONAnswerToFramedRequest: every call with a body goes out framed,
// and an endpoint that answers the way curl is answered — a proxy, a test
// double, an older daemon — is still understood: the decoder follows the
// response's Content-Type, not the request's.
func TestJSONAnswerToFramedRequest(t *testing.T) {
	reservation := wire.ReservationJSON{ID: 7, Accepted: true, State: "active", RateBps: 5e7, Rate: "50MB/s", TauS: 20, Routed: wire.RoutedCrossShard}
	reserved := wire.HoldReserveResponseJSON{Hold: "h", Held: true, ID: 3, RateBps: 1e7, TauS: 100, Epoch: 2, NowS: 1}
	state := wire.HoldStateJSON{Hold: "h", State: "confirmed", Side: "in", PeerPoint: 1, Epoch: 2}
	answers := map[string]any{
		"/v1/requests": reservation,
		"/v1/batch":    wire.BatchResponse{Results: []wire.BatchItemJSON{{Reservation: &reservation}, {Error: "nope"}}},
		"/v1/reserve":  wire.HoldResultsJSON[wire.HoldReserveResponseJSON]{Results: []wire.HoldReserveResponseJSON{reserved}},
		"/v1/confirm":  wire.HoldResultsJSON[wire.HoldStateJSON]{Results: []wire.HoldStateJSON{state}},
		"/v1/abort":    wire.HoldResultsJSON[wire.HoldStateJSON]{Results: []wire.HoldStateJSON{state}},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
			t.Errorf("%s arrived as %q, want a frame", r.URL.Path, ct)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(answers[r.URL.Path])
	}))
	defer ts.Close()
	c := NewWithOptions(ts.URL, nil, instant(nil))
	ctx := context.Background()
	req := wire.SubmitRequest{From: 0, To: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100}

	if got, err := c.Submit(ctx, req); err != nil || got != reservation {
		t.Errorf("Submit = %+v, %v", got, err)
	}
	items, err := c.SubmitBatch(ctx, []wire.SubmitRequest{req, req})
	if err != nil || len(items) != 2 || items[0].Reservation == nil || *items[0].Reservation != reservation || items[1].Error != "nope" {
		t.Errorf("SubmitBatch = %+v, %v", items, err)
	}
	if got, err := c.HoldReserve(ctx, []wire.HoldReserveJSON{{Hold: "h", Side: "in"}}); err != nil || len(got) != 1 || got[0] != reserved {
		t.Errorf("HoldReserve = %+v, %v", got, err)
	}
	if got, err := c.HoldConfirm(ctx, []wire.HoldRefJSON{{Hold: "h"}}); err != nil || len(got) != 1 || got[0] != state {
		t.Errorf("HoldConfirm = %+v, %v", got, err)
	}
	if got, err := c.HoldAbort(ctx, []wire.HoldRefJSON{{Hold: "h"}}); err != nil || len(got) != 1 || got[0] != state {
		t.Errorf("HoldAbort = %+v, %v", got, err)
	}
}

// TestUnframeableRequests: quantities that do not parse never reach the
// wire. A single submit fails the way the daemon fails the same JSON; in a
// batch the item fails in its slot and its neighbours are still sent.
func TestUnframeableRequests(t *testing.T) {
	srv, err := server.New(server.Config{
		Ingress: []units.Bandwidth{units.GBps, units.GBps},
		Egress:  []units.Bandwidth{units.GBps, units.GBps},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewWithOptions(ts.URL, nil, instant(nil))
	ctx := context.Background()
	good := wire.SubmitRequest{From: 0, To: 1, Volume: "1GB", MaxRate: "100MB/s", DeadlineIn: "100s"}
	bad := wire.SubmitRequest{From: 0, To: 1, Volume: "1GB", VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100}

	_, err = c.Submit(ctx, bad)
	if ae, ok := err.(*APIError); !ok || ae.StatusCode != http.StatusBadRequest || ae.Message != "both volume and volume_bytes set" {
		t.Errorf("Submit(unframeable) = %v, want the daemon's 400", err)
	}
	items, err := c.SubmitBatch(ctx, []wire.SubmitRequest{good, bad, good})
	if err != nil || len(items) != 3 {
		t.Fatalf("SubmitBatch = %+v, %v", items, err)
	}
	if items[1].Error != "both volume and volume_bytes set" || items[1].Reservation != nil {
		t.Errorf("unframeable item = %+v", items[1])
	}
	for _, i := range []int{0, 2} {
		if items[i].Reservation == nil || !items[i].Reservation.Accepted {
			t.Errorf("item %d = %+v, want accepted", i, items[i])
		}
	}
	if items, err = c.SubmitBatch(ctx, []wire.SubmitRequest{bad}); err != nil || len(items) != 1 || items[0].Error == "" {
		t.Errorf("all-unframeable batch = %+v, %v", items, err)
	}
	if st := srv.Status(); st.Stats.Submitted != 2 {
		t.Errorf("daemon decided %d submissions, want the 2 framed ones", st.Stats.Submitted)
	}
}

// TestRetriesResendIdenticalFrames: many callers share the client, every
// call's first attempt is refused, and each retry must carry byte for byte
// what the first attempt carried — frames are encoded in pooled scratch,
// and nothing of one call's may leak into another's or change between
// attempts. Batches of mixed sizes make scratch buffers change hands
// between frames of different lengths. Run under -race.
func TestRetriesResendIdenticalFrames(t *testing.T) {
	type sighting struct {
		path   string
		bodies [][]byte
	}
	var mu sync.Mutex
	seen := map[string]*sighting{} // by the first record's idempotency key
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		subs, err := wire.DecodeBatchRequest(body, 0)
		if err != nil {
			t.Errorf("%s: attempt carried an undecodable frame: %v", r.URL.Path, err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		mu.Lock()
		s := seen[subs[0].IdempotencyKey]
		if s == nil {
			s = &sighting{path: r.URL.Path}
			seen[subs[0].IdempotencyKey] = s
		}
		s.bodies = append(s.bodies, body)
		first := len(s.bodies) == 1
		mu.Unlock()
		if first {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		items := make([]wire.BatchItemJSON, len(subs))
		for i := range subs {
			items[i].Reservation = &wire.ReservationJSON{ID: subs[i].From, Accepted: true, State: "active", RateBps: float64(subs[i].Volume)}
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(wire.AppendBatchItems(nil, items))
	}))
	defer ts.Close()
	c := NewWithOptions(ts.URL, nil, instant(nil))
	ctx := context.Background()

	const callers, calls = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				// From and the volume name the call, so an answer built from
				// another call's bytes is told apart.
				n := 1 + (g+i)%9*(i%7)
				reqs := make([]wire.SubmitRequest, n)
				for j := range reqs {
					reqs[j] = wire.SubmitRequest{
						From: g*1000 + i, To: j, VolumeBytes: float64(g*1000 + i + 1), MaxRateBps: 1e8, DeadlineS: 100,
						IdempotencyKey: fmt.Sprintf("g%d-i%d-j%d-%s", g, i, j, strings.Repeat("x", (g*i)%40)),
					}
				}
				if i%2 == 0 {
					res, err := c.Submit(ctx, reqs[0])
					if err != nil || res.ID != reqs[0].From || res.RateBps != reqs[0].VolumeBytes {
						t.Errorf("caller %d call %d: Submit = %+v, %v", g, i, res, err)
					}
					continue
				}
				items, err := c.SubmitBatch(ctx, reqs)
				if err != nil || len(items) != n {
					t.Errorf("caller %d call %d: SubmitBatch = %d items, %v", g, i, len(items), err)
					continue
				}
				for j, it := range items {
					if it.Reservation == nil || it.Reservation.ID != reqs[j].From || it.Reservation.RateBps != reqs[j].VolumeBytes {
						t.Errorf("caller %d call %d item %d = %+v", g, i, j, it)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if len(seen) != callers*calls {
		t.Fatalf("server saw %d distinct calls, want %d", len(seen), callers*calls)
	}
	for key, s := range seen {
		if len(s.bodies) != 2 {
			t.Errorf("%s: %d attempts, want the refused one and its retry", key, len(s.bodies))
			continue
		}
		if !bytes.Equal(s.bodies[0], s.bodies[1]) {
			t.Errorf("%s %s: retry re-sent different bytes", s.path, key)
		}
	}
}

// TestDurableSubmitReportsReplicated: the durability outcome of a framed
// submit survives the wire — a Durable submission against a primary whose
// follower acks answers "replicated", singly and in a batch.
func TestDurableSubmitReportsReplicated(t *testing.T) {
	openWAL := func() *wal.Log {
		l, _, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	caps := []units.Bandwidth{units.GBps, units.GBps}
	primary, err := server.New(server.Config{Ingress: caps, Egress: caps, WAL: openWAL(), SyncTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()
	follower, err := server.New(server.Config{Ingress: caps, Egress: caps, WAL: openWAL(), Follow: ts.URL, ReplID: "f1"})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.StartFollowing(); err != nil {
		t.Fatal(err)
	}

	c := NewWithOptions(ts.URL, nil, instant(nil))
	ctx := context.Background()
	req := wire.SubmitRequest{From: 0, To: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 3600, Durable: true}
	res, err := c.Submit(ctx, req)
	if err != nil || !res.Accepted || res.Durability != wire.DurabilityReplicated {
		t.Fatalf("durable Submit = %+v, %v; want accepted and %q", res, err, wire.DurabilityReplicated)
	}
	items, err := c.SubmitBatch(ctx, []wire.SubmitRequest{req, req})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Reservation == nil || it.Reservation.Durability != wire.DurabilityReplicated {
			t.Errorf("durable batch item %d = %+v", i, it)
		}
	}
	plain := req
	plain.Durable = false
	if res, err = c.Submit(ctx, plain); err != nil || res.Durability != "" {
		t.Errorf("plain Submit = %+v, %v; want no durability outcome", res, err)
	}
	if n := primary.Status().Stats.SyncDegraded; n != 0 {
		t.Errorf("%d sync waits degraded", n)
	}
}
