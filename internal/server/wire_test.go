package server_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// TestBinaryBatchResponseRoundTrip: server-side results survive the frame
// into the client-side item shape.
func TestBinaryBatchResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	states := []server.State{server.StateBooked, server.StateActive, server.StateExpired,
		server.StateCancelled, server.StateRejected}
	durs := []string{"", wire.DurabilityReplicated, wire.DurabilityDegraded}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		in := make([]server.BatchResult, n)
		for i := range in {
			if rng.Intn(4) == 0 {
				in[i].Err = fmt.Errorf("boom %d", rng.Int31())
				continue
			}
			in[i].Decision = server.Decision{
				ID:       42,
				Accepted: rng.Intn(2) == 0,
				State:    states[rng.Intn(len(states))],
				Rate:     units.Bandwidth(rng.Float64() * 1e9),
				Sigma:    units.Time(rng.Float64() * 100),
				Tau:      units.Time(rng.Float64() * 1000),
				Reason:   "because",
			}
			in[i].Durability = durs[rng.Intn(len(durs))]
		}
		blob := server.AppendBinaryBatchResponse(nil, in)
		out, err := wire.DecodeBatchResponse(blob)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(out) != len(in) {
			t.Fatalf("trial %d: %d results round-tripped to %d", trial, len(in), len(out))
		}
		for i := range in {
			if in[i].Err != nil {
				if out[i].Error != in[i].Err.Error() || out[i].Reservation != nil {
					t.Fatalf("trial %d item %d: error round-trip %+v", trial, i, out[i])
				}
				continue
			}
			d, r := in[i].Decision, out[i].Reservation
			if r == nil {
				t.Fatalf("trial %d item %d: lost reservation", trial, i)
			}
			if r.ID != int(d.ID) || r.Accepted != d.Accepted || r.State != string(d.State) ||
				r.RateBps != float64(d.Rate) || r.SigmaS != float64(d.Sigma) ||
				r.TauS != float64(d.Tau) || r.Reason != d.Reason ||
				r.Durability != in[i].Durability {
				t.Fatalf("trial %d item %d: %+v != %+v (durability %q)", trial, i, r, d, in[i].Durability)
			}
		}
	}
}

// FuzzDecodeBinaryBatch throws arbitrary bytes, as a framed body, at each of
// the daemon's five framed routes: none may panic or answer 5xx, an answer
// that is not a success books nothing, and the state passes the audit.
// (internal/wire's FuzzDecodeBinaryBatch fuzzes the decoders themselves.)
func FuzzDecodeBinaryBatch(f *testing.F) {
	f.Add([]byte("GBB1"))
	f.Add([]byte("GBR1\x00\x00\x00\x00"))
	f.Add(wire.AppendBatchRequest(nil, []wire.Submission{
		{From: 0, To: 1, Volume: 1e9, MaxRate: 1e8, Deadline: 100, IdempotencyKey: "k"},
	}))
	f.Add(server.AppendBinaryBatchResponse(nil, []server.BatchResult{
		{Decision: server.Decision{ID: 1, Accepted: true, State: server.StateBooked, Rate: 5e7}},
		{Err: fmt.Errorf("nope")},
	}))
	id := 3
	f.Add(wire.AppendHoldReserveList(nil, []wire.HoldReserveJSON{{Hold: "h", Side: "in", Point: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100}}))
	f.Add(wire.AppendHoldReserveResults(nil, []wire.HoldReserveResponseJSON{{Hold: "h", Held: true, ID: 4, RateBps: 1e7, TauS: 100, Epoch: 1}, {ID: -1, Code: 400, Error: "no"}}))
	f.Add(wire.AppendHoldRefList(nil, []wire.HoldRefJSON{{Hold: "h", Epoch: 1}, {ID: &id}}))
	f.Add(wire.AppendHoldStates(nil, []wire.HoldStateJSON{{Hold: "h", State: "confirmed", Side: "eg", PeerPoint: 1, Epoch: 1}}))
	// Frames carry float bits JSON cannot spell.
	f.Add(wire.AppendBatchRequest(nil, []wire.Submission{
		{From: 0, To: 1, Volume: units.Volume(math.NaN()), MaxRate: units.Bandwidth(math.Inf(1)), NotBefore: units.Time(math.Inf(-1)), Deadline: 100},
	}))
	f.Add(wire.AppendHoldReserveList(nil, []wire.HoldReserveJSON{{Hold: "h", Side: "eg", Point: 1, RateBps: math.NaN(), SigmaS: math.Inf(-1), TauS: math.Inf(1)}}))
	cfg := uniformConfig(&fakeClock{})
	cfg.MaxBatch = 8
	s := newTestServer(f, cfg)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, op := range []wire.Op{wire.OpSubmit, wire.OpBatch, wire.OpReserve, wire.OpConfirm, wire.OpAbort} {
			before := bookingsOf(s)
			req := httptest.NewRequest(op.Method(), op.Path(0), bytes.NewReader(body))
			req.Header.Set("Content-Type", wire.ContentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s answered %d %s to %x", op, rec.Code, rec.Body.String(), body)
			}
			if after := bookingsOf(s); rec.Code >= 300 && after != before {
				t.Fatalf("%s answered %d to %x but left %+v, was %+v", op, rec.Code, body, after, before)
			}
		}
		if err := s.VerifyInvariant(); err != nil {
			t.Fatalf("after %x: %v", body, err)
		}
		if st := s.Status(); st.Stats.Panics != 0 {
			t.Fatalf("%d panics", st.Stats.Panics)
		}
	})
}
