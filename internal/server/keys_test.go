package server_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/trace"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// TestKeysPastTheBoundAreRefused: a key no frame can carry is refused with
// 400 on both faces and in the core, before anything is booked or logged.
// Before the bound, a JSON submit with a 2 MiB key was accepted and its WAL
// append failed (a restart lost an acknowledged decision), and the frame
// cut two different 70,000-byte keys to one, so the second submit got the
// first one's decision.
func TestKeysPastTheBoundAreRefused(t *testing.T) {
	cfg := uniformConfig(nil)
	cfg.WAL = openTestWAL(t)
	s := newTestServer(t, cfg)
	h := s.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	defer c.Close()
	ctx := context.Background()

	before := bookingsOf(s)
	unchanged := func(what string) {
		t.Helper()
		if after := bookingsOf(s); after != before {
			t.Fatalf("%s was refused but left %+v, was %+v", what, after, before)
		}
	}
	refused := func(what string, code int) {
		t.Helper()
		if code != http.StatusBadRequest {
			t.Fatalf("%s answered %d, want 400", what, code)
		}
		unchanged(what)
	}
	post := func(path, body string, header ...string) int {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		if len(header) == 2 {
			req.Header.Set(header[0], header[1])
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	apiCode := func(err error) int {
		var ae *client.APIError
		if !errors.As(err, &ae) {
			t.Fatalf("want an API error, got %v", err)
		}
		return ae.StatusCode
	}
	const ok = `"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":400`

	// (a) A 2 MiB key in the body, or in the header.
	huge := strings.Repeat("k", 2<<20)
	refused("JSON submit with a 2 MiB key", post("/v1/requests", `{"from":0,"to":1,`+ok+`,"idempotency_key":"`+huge+`"}`))
	refused("JSON submit with a 2 MiB key header", post("/v1/requests", `{"from":0,"to":1,`+ok+`}`, "Idempotency-Key", huge))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(`{"requests":[{"from":0,"to":1,`+ok+`,"idempotency_key":"`+huge+`"}]}`)))
	if want := `{"results":[{"error":"idempotency_key of 2097152 bytes exceeds 65535"}]}`; rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != want {
		t.Fatalf("JSON batch item with a 2 MiB key answered %d %.200s, want 200 %s", rec.Code, rec.Body.String(), want)
	}
	unchanged("JSON batch item with a 2 MiB key")

	// (b) Two 70,000-byte keys that differ past byte 65,535, on two pairs.
	long := strings.Repeat("k", 70000)
	for i, key := range []string{long + "a", long + "b"} {
		_, err := c.Submit(ctx, wire.SubmitRequest{From: i, To: i, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 400, IdempotencyKey: key})
		refused("client submit with a 70,000-byte key", apiCode(err))
	}
	_, err := c.SubmitBatchWire(ctx, []wire.Submission{{From: 0, To: 1, Volume: 1e9, MaxRate: 1e8, Deadline: 400, IdempotencyKey: long}})
	refused("client batch with a 70,000-byte key", apiCode(err))
	if _, err := s.Submit(server.Submission{From: 0, To: 1, Volume: 1e9, MaxRate: 1e8, Deadline: 400, IdempotencyKey: long}); err == nil {
		t.Fatal("the core accepted a 70,000-byte key")
	}

	// An oversized hold key, on the JSON face, through the client and in
	// the core.
	refused("JSON reserve with a 70,000-byte hold key", post("/v1/reserve",
		`{"holds":[{"hold":"`+long+`","side":"in","point":0,"peer_point":1,"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":1000}]}`))
	refused("JSON confirm with a 70,000-byte hold key", post("/v1/confirm", `{"holds":[{"hold":"`+long+`"}]}`))
	hold := wire.HoldReserveJSON{Hold: long, Side: trace.HoldSideIngress, Point: 0, PeerPoint: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 1000}
	_, err = c.HoldReserve(ctx, time.Time{}, []wire.HoldReserveJSON{hold}, nil)
	refused("client reserve with a 70,000-byte hold key", apiCode(err))
	resps, err := s.HoldReserve([]wire.HoldReserveJSON{hold})
	if err != nil {
		t.Fatal(err)
	}
	refused("core reserve with a 70,000-byte hold key", resps[0].Code)

	if st := s.Status(); st.Stats.LogAppendFailures != 0 {
		t.Fatalf("%d WAL appends failed", st.Stats.LogAppendFailures)
	}

	// Keys at the bound are whole on either face: two that differ only in
	// their last byte are two submissions, and each replays as itself.
	atBound := strings.Repeat("k", wire.MaxKeyBytes-1)
	var ids []int
	for i, key := range []string{atBound + "a", atBound + "b", atBound + "a", atBound + "b"} {
		res, err := c.Submit(ctx, wire.SubmitRequest{From: i % 2, To: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 400, IdempotencyKey: key})
		if err != nil || !res.Accepted {
			t.Fatalf("submit with a key at the bound: %+v, %v", res, err)
		}
		ids = append(ids, res.ID)
	}
	if ids[0] == ids[1] || ids[2] != ids[0] || ids[3] != ids[1] {
		t.Fatalf("keys at the bound answered ids %v, want two ids each replayed", ids)
	}
	if st := s.Status(); st.Stats.LogAppendFailures != 0 || st.Stats.IdempotentHits != 2 {
		t.Fatalf("keys at the bound: %d WAL append failures, %d idempotent hits (want 0, 2)",
			st.Stats.LogAppendFailures, st.Stats.IdempotentHits)
	}
}

// TestRecordWithEveryStringAtTheBoundFitsTheWAL: the key bound and the WAL's
// record bound cannot drift apart — a record whose every string is as long
// as a frame lets it be, and whose every other field is at its widest,
// still appends.
func TestRecordWithEveryStringAtTheBoundFitsTheWAL(t *testing.T) {
	s := strings.Repeat("s", wire.MaxKeyBytes)
	ev := trace.Event{
		Kind: trace.EventHoldReserve, Request: math.MinInt64, Ingress: math.MinInt64, Egress: math.MinInt64,
		At: math.MaxFloat64, RateBps: math.MaxFloat64, SigmaS: math.MaxFloat64, TauS: math.MaxFloat64,
		VolumeB: math.MaxFloat64, MaxRateBps: math.MaxFloat64, ExpireS: math.MaxFloat64,
		Reason: s, Key: s, Hold: s, Side: s,
	}
	rec, err := trace.AppendRecord(nil, &ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) > wal.MaxRecordBytes {
		t.Fatalf("a record at the key bound is %d bytes, over wal.MaxRecordBytes %d", len(rec), wal.MaxRecordBytes)
	}
	if _, err := openTestWAL(t).Append(rec); err != nil {
		t.Fatalf("append a record at the key bound: %v", err)
	}
}

// TestFramesCarryNoPointPastThirtyTwoBits: a point index travels in 32 bits,
// so one past them is refused before it is framed as some other point, on
// every client call that frames one; so is a hold side a frame would cut.
// Before, the client framed point 2^32 as point 0 and booked it, and
// SubmitWire, SubmitBatchWire and HoldReserve, which checked only keys,
// still booked point 2^32+1 as point 1.
func TestFramesCarryNoPointPastThirtyTwoBits(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	defer c.Close()
	ctx := context.Background()
	before := bookingsOf(s)
	refused := func(what string, err error) {
		t.Helper()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s answered %v, want a 400", what, err)
		}
		if after := bookingsOf(s); after != before {
			t.Fatalf("%s was refused but left %+v, was %+v", what, after, before)
		}
	}
	for _, req := range []wire.SubmitRequest{
		{From: 1 << 32, To: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 400},
		{From: 0, To: 1<<32 + 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 400},
	} {
		_, err := c.Submit(ctx, req)
		refused(fmt.Sprintf("submit of %d→%d", req.From, req.To), err)
	}
	_, err := c.SubmitWire(ctx, wire.Submission{From: 1<<32 + 1, To: 0, Volume: 1e9, MaxRate: 1e8, Deadline: 400})
	refused("SubmitWire of 2^32+1→0", err)
	_, err = c.SubmitBatchWire(ctx, []wire.Submission{{From: 0, To: 1<<32 + 1, Volume: 1e9, MaxRate: 1e8, Deadline: 400}})
	refused("SubmitBatchWire of 0→2^32+1", err)
	hold := wire.HoldReserveJSON{Hold: "h", Side: trace.HoldSideIngress, Point: 1<<32 + 1, PeerPoint: 0, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 1000}
	_, err = c.HoldReserve(ctx, time.Time{}, []wire.HoldReserveJSON{hold}, nil)
	refused("HoldReserve of point 2^32+1", err)
	hold.Point, hold.Side = 1, strings.Repeat("s", wire.MaxKeyBytes+1)
	_, err = c.HoldReserve(ctx, time.Time{}, []wire.HoldReserveJSON{hold}, nil)
	refused("HoldReserve with a 65,536-byte side", err)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reserve", strings.NewReader(
		`{"holds":[{"hold":"h","side":"in","point":4294967296,"peer_point":1,"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":1000}]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("reserve of point 2^32 answered %d %s, want 400", rec.Code, rec.Body.String())
	}
	if after := bookingsOf(s); after != before {
		t.Fatalf("refused points left %+v, was %+v", after, before)
	}
}
