package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/units"
)

// Frames carry raw float64 bits, so NaN and ±Inf reach the daemon although
// no JSON body can spell them. Every quantity of every request-plane record
// is refused when it is not finite — the call's 400 on a single submit, the
// item's own error in a batch or a hold list with its neighbours decided as
// usual — and leaves nothing behind: no booking, no ID, no WAL event, and a
// snapshot that still serializes.
func TestNonFiniteQuantitiesBookNothing(t *testing.T) {
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.Policy = "f=0.5"
	cfg.WAL = openTestWAL(t)
	srv := newTestServer(t, cfg)
	ff := &face{srv: srv, h: srv.Handler(), framed: true}
	clk.advance(30e9)

	walRecords := func() uint64 { return srv.ReplicationStatus().WALRecords }
	nextKey := 0
	key := func() string { nextKey++; return fmt.Sprintf("k%d", nextKey) }
	good := func() server.WireSubmission {
		return server.WireSubmission{From: 0, To: 1, Volume: 1e6, MaxRate: 1e5, Deadline: 1e4, IdempotencyKey: key()}
	}
	goodHold := func(side string) server.HoldReserveJSON {
		h := server.HoldReserveJSON{Hold: key(), Side: side, Point: 1, PeerPoint: 0, TTLS: 5, VolumeBytes: 1e6, MaxRateBps: 1e5}
		if side == "in" {
			h.NotBeforeS, h.DeadlineS = 40, 1e4
		} else {
			h.RateBps, h.SigmaS, h.TauS = 5e4, 40, 60
		}
		return h
	}

	subFields := map[string]func(*server.WireSubmission, float64){
		"volume":     func(ws *server.WireSubmission, x float64) { ws.Volume = units.Volume(x) },
		"max_rate":   func(ws *server.WireSubmission, x float64) { ws.MaxRate = units.Bandwidth(x) },
		"not_before": func(ws *server.WireSubmission, x float64) { ws.NotBefore = units.Time(x) },
		"deadline":   func(ws *server.WireSubmission, x float64) { ws.Deadline = units.Time(x) },
	}
	holdFields := map[string]map[string]func(*server.HoldReserveJSON) *float64{
		"in": {
			"ttl_s":        func(h *server.HoldReserveJSON) *float64 { return &h.TTLS },
			"volume_bytes": func(h *server.HoldReserveJSON) *float64 { return &h.VolumeBytes },
			"max_rate_bps": func(h *server.HoldReserveJSON) *float64 { return &h.MaxRateBps },
			"not_before_s": func(h *server.HoldReserveJSON) *float64 { return &h.NotBeforeS },
			"deadline_s":   func(h *server.HoldReserveJSON) *float64 { return &h.DeadlineS },
		},
		"eg": {
			"ttl_s":        func(h *server.HoldReserveJSON) *float64 { return &h.TTLS },
			"volume_bytes": func(h *server.HoldReserveJSON) *float64 { return &h.VolumeBytes },
			"max_rate_bps": func(h *server.HoldReserveJSON) *float64 { return &h.MaxRateBps },
			"rate_bps":     func(h *server.HoldReserveJSON) *float64 { return &h.RateBps },
			"sigma_s":      func(h *server.HoldReserveJSON) *float64 { return &h.SigmaS },
			"tau_s":        func(h *server.HoldReserveJSON) *float64 { return &h.TauS },
		},
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, rel := range []bool{false, true} {
			for field, set := range subFields {
				what := fmt.Sprintf("%s=%v rel=%v", field, bad, rel)
				ws := good()
				ws.RelNotBefore, ws.RelDeadline = rel, rel
				set(&ws, bad)

				// Alone: the call's 400.
				before, records := bookingsOf(srv), walRecords()
				rec := ff.post("/v1/requests", server.AppendBinarySubmitRequest(nil, &ws))
				var env server.ErrorJSON
				if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error == "" {
					t.Fatalf("single %s: answered %d %q, want 400 with an error envelope", what, rec.Code, rec.Body.String())
				}
				if after := bookingsOf(srv); after != before || walRecords() != records {
					t.Fatalf("single %s: refused but left %+v and %d WAL records, was %+v and %d",
						what, after, walRecords(), before, records)
				}

				// Between two good neighbours: its own error, theirs decided.
				ws.IdempotencyKey = key()
				rec = ff.post("/v1/batch", server.AppendBinaryBatchRequest(nil, []server.WireSubmission{good(), ws, good()}))
				items, err := server.DecodeBinaryBatchResponse(rec.Body.Bytes())
				if rec.Code != http.StatusOK || err != nil || len(items) != 3 {
					t.Fatalf("batch %s: answered %d, %v", what, rec.Code, err)
				}
				if items[1].Error == "" || items[1].Reservation != nil {
					t.Fatalf("batch %s: the item was decided: %+v", what, items[1])
				}
				for _, i := range []int{0, 2} {
					if items[i].Reservation == nil || !items[i].Reservation.Accepted {
						t.Fatalf("batch %s: neighbour %d: %+v", what, i, items[i])
					}
				}
				if after := bookingsOf(srv); after.live != before.live+2 || after.submitted != before.submitted+2 || walRecords() != records+2 {
					t.Fatalf("batch %s: %+v and %d WAL records after two accepts, was %+v and %d",
						what, after, walRecords(), before, records)
				}
			}
			for side, fields := range holdFields {
				for field, at := range fields {
					what := fmt.Sprintf("%s hold %s=%v rel=%v", side, field, bad, rel)
					h := goodHold(side)
					h.RelTimes = rel
					*at(&h) = bad
					neighbour := goodHold(side)
					before, records := bookingsOf(srv), walRecords()
					rec := ff.post("/v1/reserve", server.AppendHoldReserveList(nil, []server.HoldReserveJSON{neighbour, h}))
					resps, err := server.DecodeHoldReserveResults(rec.Body.Bytes())
					if rec.Code != http.StatusOK || err != nil || len(resps) != 2 {
						t.Fatalf("%s: answered %d, %v", what, rec.Code, err)
					}
					if !resps[0].Held || resps[0].Code != 0 {
						t.Fatalf("%s: neighbour: %+v", what, resps[0])
					}
					if resps[1].Held || resps[1].Code != http.StatusBadRequest || resps[1].Error == "" {
						t.Fatalf("%s: answered %+v, want the item's own 400", what, resps[1])
					}
					if after := bookingsOf(srv); after.held != before.held+1 || after.submitted != before.submitted || walRecords() != records+1 {
						t.Fatalf("%s: %+v and %d WAL records after one hold, was %+v and %d", what, after, walRecords(), before, records)
					}
					// The refused key left no tombstone: the same key, repaired, books.
					h = goodHold(side)
					h.Hold = resps[1].Hold
					if out, err := srv.HoldReserve([]server.HoldReserveJSON{h}); err != nil || !out[0].Held {
						t.Fatalf("%s: repaired retry: %+v, %v", what, out, err)
					}
				}
			}
		}
	}

	// A far deadline is finite and keeps working.
	far := good()
	far.Deadline = 1e300
	rec := ff.post("/v1/requests", server.AppendBinarySubmitRequest(nil, &far))
	if rj, err := server.DecodeBinarySubmitResponse(rec.Body.Bytes()); rec.Code != http.StatusCreated || err != nil || !rj.Accepted {
		t.Fatalf("deadline 1e300: answered %d %+v, %v", rec.Code, rj, err)
	}
	if srv.Status().Stats.LogAppendFailures != 0 {
		t.Fatalf("%d events failed to reach the WAL", srv.Status().Stats.LogAppendFailures)
	}
	if err := srv.Snapshot().Write(io.Discard); err != nil {
		t.Fatalf("snapshot after the refusals: %v", err)
	}
	if err := srv.VerifyInvariant(); err != nil {
		t.Fatal(err)
	}
}
