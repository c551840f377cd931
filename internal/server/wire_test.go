package server_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/units"
)

func randWireSubmission(rng *rand.Rand) server.WireSubmission {
	ws := server.WireSubmission{
		From:         rng.Intn(8) - 2, // includes invalid negatives: codec is shape-agnostic
		To:           rng.Intn(8) - 2,
		Volume:       units.Volume(rng.Float64() * 1e12),
		MaxRate:      units.Bandwidth(rng.Float64() * 1e9),
		NotBefore:    units.Time(rng.Float64() * 1e4),
		Deadline:     units.Time(rng.Float64() * 1e5),
		RelNotBefore: rng.Intn(2) == 0,
		RelDeadline:  rng.Intn(2) == 0,
		Durable:      rng.Intn(2) == 0,
	}
	if rng.Intn(3) > 0 {
		ws.IdempotencyKey = fmt.Sprintf("key-%d", rng.Int63())
	}
	if rng.Intn(16) == 0 {
		ws.Volume = units.Volume(math.Inf(1)) // codec must carry any f64 bit pattern
	}
	return ws
}

// TestBinaryBatchRequestRoundTrip: encode→decode is the identity on
// random submissions, byte-exact on every float.
func TestBinaryBatchRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		in := make([]server.WireSubmission, n)
		for i := range in {
			in[i] = randWireSubmission(rng)
		}
		blob := server.AppendBinaryBatchRequest(nil, in)
		out, err := server.DecodeBinaryBatchRequest(blob, 0)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(out) != len(in) {
			t.Fatalf("trial %d: %d records round-tripped to %d", trial, len(in), len(out))
		}
		for i := range in {
			if in[i] != out[i] {
				t.Fatalf("trial %d record %d: %+v != %+v", trial, i, in[i], out[i])
			}
		}
	}
}

// TestBinaryBatchResponseRoundTrip: server-side results survive the frame
// into the client-side item shape.
func TestBinaryBatchResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	states := []server.State{server.StateBooked, server.StateActive, server.StateExpired,
		server.StateCancelled, server.StateRejected}
	durs := []string{"", server.DurabilityReplicated, server.DurabilityDegraded}
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
		out, err := server.DecodeBinaryBatchResponse(blob)
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

// TestHoldListFramesRoundTrip: the four hold frames, the routed marker of
// a decision item and the single-submit pair are the identity under
// encode→decode.
func TestHoldListFramesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pick := func(ss ...string) string { return ss[rng.Intn(len(ss))] }
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		reqs := make([]server.HoldReserveJSON, n)
		resps := make([]server.HoldReserveResponseJSON, n)
		refs := make([]server.HoldRefJSON, n)
		sts := make([]server.HoldStateJSON, n)
		items := make([]server.BatchItemJSON, n)
		for i := 0; i < n; i++ {
			reqs[i] = server.HoldReserveJSON{
				Hold: pick("", "x-abc", "h"), Side: pick("in", "eg", "", "sideways"),
				Point: rng.Intn(9) - 2, PeerPoint: rng.Intn(9) - 2, TTLS: rng.Float64() * 9,
				RelTimes: rng.Intn(2) == 0, VolumeBytes: rng.Float64() * 1e12, MaxRateBps: rng.Float64() * 1e9,
				NotBeforeS: rng.Float64() * 1e4, DeadlineS: rng.Float64() * 1e5,
				RateBps: rng.Float64() * 1e9, SigmaS: rng.NormFloat64(), TauS: rng.Float64() * 1e5,
			}
			resps[i] = server.HoldReserveResponseJSON{
				Hold: pick("", "x-abc"), Held: rng.Intn(2) == 0, ID: rng.Intn(100) - 1,
				RateBps: rng.Float64() * 1e9, SigmaS: rng.Float64(), TauS: rng.Float64() * 1e5,
				Epoch: rng.Uint64(), NowS: rng.Float64() * 1e6, Reason: pick("", "ingress capacity saturated"),
				Code: pick3(rng, 0, 400, 404), Error: pick("", "server: reserve without hold key"),
			}
			refs[i] = server.HoldRefJSON{Hold: pick("", "x-abc"), Epoch: uint64(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				id := rng.Intn(5) - 1
				refs[i].ID = &id
			}
			sts[i] = server.HoldStateJSON{
				Hold: pick("", "x-abc"), State: pick("", "held", "confirmed", "aborted", "holdState(9)"),
				Released: rng.Intn(2) == 0, Side: pick("", "in", "eg"), PeerPoint: rng.Intn(9) - 2,
				Epoch: rng.Uint64(), Code: pick3(rng, 0, 404, 409), Error: pick("", "server: hold already aborted"),
			}
			items[i].Reservation = &server.ReservationJSON{
				ID: rng.Intn(1000), Accepted: rng.Intn(2) == 0, State: pick("booked", "active", "rejected"),
				RateBps: rng.Float64() * 1e9, Routed: pick("", server.RoutedCrossShard),
			}
		}
		if n > 0 {
			// An empty list is malformed on the request side.
			if got, err := server.DecodeHoldReserveList(server.AppendHoldReserveList(nil, reqs), 0); err != nil || !reflect.DeepEqual(got, reqs) {
				t.Fatalf("trial %d: reserve list: %v\n got %+v\nwant %+v", trial, err, got, reqs)
			}
			if got, err := server.DecodeHoldRefList(server.AppendHoldRefList(nil, refs), 0); err != nil || !reflect.DeepEqual(got, refs) {
				t.Fatalf("trial %d: ref list: %v\n got %+v\nwant %+v", trial, err, got, refs)
			}
		}
		if got, err := server.DecodeHoldReserveResults(server.AppendHoldReserveResults(nil, resps)); err != nil || !reflect.DeepEqual(got, resps) {
			t.Fatalf("trial %d: reserve results: %v\n got %+v\nwant %+v", trial, err, got, resps)
		}
		if got, err := server.DecodeHoldStates(server.AppendHoldStates(nil, sts)); err != nil || !reflect.DeepEqual(got, sts) {
			t.Fatalf("trial %d: hold states: %v\n got %+v\nwant %+v", trial, err, got, sts)
		}
		if got, err := server.DecodeBinaryBatchResponse(server.AppendBinaryBatchItems(nil, items)); err != nil || !reflect.DeepEqual(got, items) {
			t.Fatalf("trial %d: routed items: %v\n got %+v\nwant %+v", trial, err, got, items)
		}
		ws := randWireSubmission(rng)
		if got, err := server.DecodeBinarySubmitRequest(server.AppendBinarySubmitRequest(nil, &ws)); err != nil || got != ws {
			t.Fatalf("trial %d: single submit: %v\n got %+v\nwant %+v", trial, err, got, ws)
		}
		if n > 0 {
			got, err := server.DecodeBinarySubmitResponse(server.AppendBinaryBatchItems(nil, items[:1]))
			if err != nil || got != *items[0].Reservation {
				t.Fatalf("trial %d: single answer: %v\n got %+v\nwant %+v", trial, err, got, items[0].Reservation)
			}
		}
	}
	two := server.AppendBinaryBatchRequest(nil, make([]server.WireSubmission, 2))
	if _, err := server.DecodeBinarySubmitRequest(two); err == nil {
		t.Error("a two-record frame decoded as a single submit")
	}
}

func pick3(rng *rand.Rand, vs ...int) int { return vs[rng.Intn(len(vs))] }

// FuzzDecodeBinaryBatch throws arbitrary bytes at every decoder: they
// must never panic, and whatever decodes must re-encode to a frame that
// decodes to the same thing.
func FuzzDecodeBinaryBatch(f *testing.F) {
	f.Add([]byte("GBB1"))
	f.Add([]byte("GBR1\x00\x00\x00\x00"))
	f.Add(server.AppendBinaryBatchRequest(nil, []server.WireSubmission{
		{From: 0, To: 1, Volume: 1e9, MaxRate: 1e8, Deadline: 100, IdempotencyKey: "k"},
	}))
	f.Add(server.AppendBinaryBatchResponse(nil, []server.BatchResult{
		{Decision: server.Decision{ID: 1, Accepted: true, State: server.StateBooked, Rate: 5e7}},
		{Err: fmt.Errorf("nope")},
	}))
	id := 3
	f.Add(server.AppendHoldReserveList(nil, []server.HoldReserveJSON{{Hold: "h", Side: "in", Point: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100}}))
	f.Add(server.AppendHoldReserveResults(nil, []server.HoldReserveResponseJSON{{Hold: "h", Held: true, ID: 4, RateBps: 1e7, TauS: 100, Epoch: 1}, {ID: -1, Code: 400, Error: "no"}}))
	f.Add(server.AppendHoldRefList(nil, []server.HoldRefJSON{{Hold: "h", Epoch: 1}, {ID: &id}}))
	f.Add(server.AppendHoldStates(nil, []server.HoldStateJSON{{Hold: "h", State: "confirmed", Side: "eg", PeerPoint: 1, Epoch: 1}}))
	// Frames carry float bits JSON cannot spell.
	f.Add(server.AppendBinaryBatchRequest(nil, []server.WireSubmission{
		{From: 0, To: 1, Volume: units.Volume(math.NaN()), MaxRate: units.Bandwidth(math.Inf(1)), NotBefore: units.Time(math.Inf(-1)), Deadline: 100},
	}))
	f.Add(server.AppendHoldReserveList(nil, []server.HoldReserveJSON{{Hold: "h", Side: "eg", Point: 1, RateBps: math.NaN(), SigmaS: math.Inf(-1), TauS: math.Inf(1)}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		batch := func(b []byte) ([]server.WireSubmission, error) { return server.DecodeBinaryBatchRequest(b, 1024) }
		reserve := func(b []byte) ([]server.HoldReserveJSON, error) { return server.DecodeHoldReserveList(b, 1024) }
		refs := func(b []byte) ([]server.HoldRefJSON, error) { return server.DecodeHoldRefList(b, 1024) }
		single := func(dst []byte, ws server.WireSubmission) []byte { return server.AppendBinarySubmitRequest(dst, &ws) }
		reencodes(t, "batch request", data, batch, server.AppendBinaryBatchRequest)
		reencodes(t, "single submit", data, server.DecodeBinarySubmitRequest, single)
		reencodes(t, "batch response", data, server.DecodeBinaryBatchResponse, server.AppendBinaryBatchItems)
		reencodes(t, "reserve list", data, reserve, server.AppendHoldReserveList)
		reencodes(t, "reserve results", data, server.DecodeHoldReserveResults, server.AppendHoldReserveResults)
		reencodes(t, "ref list", data, refs, server.AppendHoldRefList)
		reencodes(t, "hold states", data, server.DecodeHoldStates, server.AppendHoldStates)
		_, _ = server.DecodeBinarySubmitResponse(data)
	})
}

// reencodes checks that, if data decodes at all, encoding what it decoded
// to is a fixed point: it decodes again, to something that encodes to the
// same bytes. (Comparing bytes rather than values holds for NaN fields too.)
func reencodes[T any](t *testing.T, what string, data []byte, decode func([]byte) (T, error), encode func([]byte, T) []byte) {
	v, err := decode(data)
	if err != nil {
		return
	}
	blob := encode(nil, v)
	again, err := decode(blob)
	if err != nil {
		t.Fatalf("%s: re-encoded frame does not decode: %v", what, err)
	}
	if !bytes.Equal(blob, encode(nil, again)) {
		t.Fatalf("%s: re-encoding is not a fixed point", what)
	}
}
