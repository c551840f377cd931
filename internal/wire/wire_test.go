package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

func randSubmission(rng *rand.Rand) Submission {
	ws := Submission{
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
		in := make([]Submission, n)
		for i := range in {
			in[i] = randSubmission(rng)
		}
		blob := AppendBatchRequest(nil, in)
		out, err := DecodeBatchRequest(blob, 0)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("trial %d: %+v round-tripped to %+v", trial, in, out)
		}
	}
}

// TestHoldListFramesRoundTrip: the four hold frames, the decision item with
// every state, durability and the routed marker, and the single-submit pair
// are the identity under encode→decode.
func TestHoldListFramesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pick := func(ss ...string) string { return ss[rng.Intn(len(ss))] }
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		reqs := make([]HoldReserveJSON, n)
		resps := make([]HoldReserveResponseJSON, n)
		refs := make([]HoldRefJSON, n)
		sts := make([]HoldStateJSON, n)
		items := make([]BatchItemJSON, n)
		for i := 0; i < n; i++ {
			reqs[i] = HoldReserveJSON{
				Hold: pick("", "x-abc", "h"), Side: pick("in", "eg", "", "sideways"),
				Point: rng.Intn(9) - 2, PeerPoint: rng.Intn(9) - 2, TTLS: rng.Float64() * 9,
				RelTimes: rng.Intn(2) == 0, VolumeBytes: rng.Float64() * 1e12, MaxRateBps: rng.Float64() * 1e9,
				NotBeforeS: rng.Float64() * 1e4, DeadlineS: rng.Float64() * 1e5,
				RateBps: rng.Float64() * 1e9, SigmaS: rng.NormFloat64(), TauS: rng.Float64() * 1e5,
			}
			resps[i] = HoldReserveResponseJSON{
				Hold: pick("", "x-abc"), Held: rng.Intn(2) == 0, ID: rng.Intn(100) - 1,
				RateBps: rng.Float64() * 1e9, SigmaS: rng.Float64(), TauS: rng.Float64() * 1e5,
				Epoch: rng.Uint64(), NowS: rng.Float64() * 1e6, Reason: pick("", "ingress capacity saturated"),
				Code: pick3(rng, 0, 400, 404), Error: pick("", "server: reserve without hold key"),
			}
			refs[i] = HoldRefJSON{Hold: pick("", "x-abc"), Epoch: uint64(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				id := rng.Intn(5) - 1
				refs[i].ID = &id
			}
			sts[i] = HoldStateJSON{
				Hold: pick("", "x-abc"), State: pick("", "held", "confirmed", "aborted", "holdState(9)"),
				Released: rng.Intn(2) == 0, Side: pick("", "in", "eg"), PeerPoint: rng.Intn(9) - 2,
				Epoch: rng.Uint64(), Code: pick3(rng, 0, 404, 409), Error: pick("", "server: hold already aborted"),
			}
			if rng.Intn(4) == 0 {
				items[i].Error = pick("boom", "no")
				continue
			}
			items[i].Reservation = &ReservationJSON{
				ID: rng.Intn(1000), Accepted: rng.Intn(2) == 0, State: pick(states[:]...),
				RateBps: rng.Float64() * 1e9, SigmaS: rng.Float64() * 100, TauS: rng.Float64() * 1000,
				Reason: pick("", "because"), Durability: pick(durabilities[:]...), Routed: pick("", RoutedCrossShard),
			}
		}
		if n > 0 {
			// An empty list is malformed on the request side.
			if got, err := DecodeHoldReserveList(AppendHoldReserveList(nil, reqs), 0); err != nil || !reflect.DeepEqual(got, reqs) {
				t.Fatalf("trial %d: reserve list: %v\n got %+v\nwant %+v", trial, err, got, reqs)
			}
			if got, err := DecodeHoldRefList(AppendHoldRefList(nil, refs), 0); err != nil || !reflect.DeepEqual(got, refs) {
				t.Fatalf("trial %d: ref list: %v\n got %+v\nwant %+v", trial, err, got, refs)
			}
		}
		if got, err := DecodeHoldReserveResults(AppendHoldReserveResults(nil, resps)); err != nil || !reflect.DeepEqual(got, resps) {
			t.Fatalf("trial %d: reserve results: %v\n got %+v\nwant %+v", trial, err, got, resps)
		}
		if got, err := DecodeHoldStates(AppendHoldStates(nil, sts)); err != nil || !reflect.DeepEqual(got, sts) {
			t.Fatalf("trial %d: hold states: %v\n got %+v\nwant %+v", trial, err, got, sts)
		}
		if got, err := DecodeBatchResponse(AppendBatchItems(nil, items)); err != nil || !reflect.DeepEqual(got, items) {
			t.Fatalf("trial %d: items: %v\n got %+v\nwant %+v", trial, err, got, items)
		}
		ws := randSubmission(rng)
		if got, err := DecodeSubmitRequest(AppendSubmitRequest(nil, &ws)); err != nil || got != ws {
			t.Fatalf("trial %d: single submit: %v\n got %+v\nwant %+v", trial, err, got, ws)
		}
		if n > 0 && items[0].Reservation != nil {
			got, err := DecodeSubmitResponse(AppendBatchItems(nil, items[:1]))
			if err != nil || got != *items[0].Reservation {
				t.Fatalf("trial %d: single answer: %v\n got %+v\nwant %+v", trial, err, got, items[0].Reservation)
			}
		}
	}
	two := AppendBatchRequest(nil, make([]Submission, 2))
	if _, err := DecodeSubmitRequest(two); err == nil {
		t.Error("a two-record frame decoded as a single submit")
	}
	if _, err := DecodeSubmitResponse(AppendBatchItems(nil, []BatchItemJSON{{Error: "no"}})); err == nil {
		t.Error("an error item decoded as the answer to one submission")
	}
	unknown := AppendDecision(nil, &ReservationJSON{State: "paused", Durability: "eventual"})
	var it item
	readItem(&reader{data: unknown}, &it)
	if it.rj.State != StateRejected || it.rj.Durability != "" {
		t.Errorf("an unknown state and durability decode as %q and %q, want the fallbacks", it.rj.State, it.rj.Durability)
	}
}

func pick3(rng *rand.Rand, vs ...int) int { return vs[rng.Intn(len(vs))] }

// TestChecksRefuseWhatAFrameCannotCarry: a point past 32 bits and a key or
// side past MaxKeyBytes fail each shape's check; one at the bound passes.
func TestChecksRefuseWhatAFrameCannotCarry(t *testing.T) {
	long := string(make([]byte, MaxKeyBytes+1))
	atBound := long[:MaxKeyBytes]
	for name, err := range map[string]error{
		"from past 32 bits":   (&Submission{From: 1<<32 + 1}).Check(),
		"to past 32 bits":     (&Submission{To: -1 << 33}).Check(),
		"long key":            (&Submission{IdempotencyKey: long}).Check(),
		"hold point":          (&HoldReserveJSON{Point: 1 << 32}).Check(),
		"hold peer point":     (&HoldReserveJSON{PeerPoint: 1<<32 + 1}).Check(),
		"long hold key":       (&HoldReserveJSON{Hold: long}).Check(),
		"long hold side":      (&HoldReserveJSON{Side: long}).Check(),
		"long ref key":        (&HoldRefJSON{Hold: long}).Check(),
		"JSON from":           second(SubmitRequest{From: 1 << 32}.Wire()),
		"JSON key":            second(SubmitRequest{IdempotencyKey: long}.Wire()),
		"unparsable quantity": second(SubmitRequest{Volume: "lots"}.Wire()),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for name, err := range map[string]error{
		"submission": (&Submission{From: math.MaxInt32, To: math.MinInt32, IdempotencyKey: atBound}).Check(),
		"hold":       (&HoldReserveJSON{Hold: atBound, Side: atBound, Point: math.MaxInt32, PeerPoint: -1}).Check(),
		"ref":        (&HoldRefJSON{Hold: atBound}).Check(),
	} {
		if err != nil {
			t.Errorf("%s at the bound: %v", name, err)
		}
	}
}

func second[T any](_ T, err error) error { return err }

// TestSplitAndMergeBatch: a request that cannot be framed keeps its slot
// with its error, the rest are sent in order, and the answers fill the
// open slots in order; a count that does not line up is refused.
func TestSplitAndMergeBatch(t *testing.T) {
	reqs := []SubmitRequest{
		{From: 0, To: 1, Volume: "1GB", DeadlineIn: "90s"},
		{From: 0, To: 1, Volume: "x"},
		{From: 1, To: 0, VolumeBytes: 2},
		{From: 1 << 32},
	}
	items, subs := SplitBatch(reqs)
	if len(subs) != 2 || subs[0].Volume != 1e9 || subs[0].Deadline != 90 || !subs[0].RelDeadline || subs[1].Volume != 2 {
		t.Fatalf("sent %+v", subs)
	}
	if items[1].Error == "" || items[3].Error == "" || items[0].Error != "" || items[2].Error != "" {
		t.Fatalf("slots %+v", items)
	}
	answers := []BatchItemJSON{{Reservation: &ReservationJSON{ID: 7}}, {Error: "shard down"}}
	if err := MergeBatch(items, answers[:1]); err == nil {
		t.Fatal("one answer for two requests merged")
	}
	if err := MergeBatch(items, answers); err != nil {
		t.Fatal(err)
	}
	if items[0].Reservation.ID != 7 || items[2].Error != "shard down" {
		t.Fatalf("merged %+v", items)
	}
}

// TestOpTable: each op's route is spelled once, and the call paths the
// client sends land on the patterns the daemon registers.
func TestOpTable(t *testing.T) {
	want := map[Op]string{
		OpSubmit: "POST /v1/requests", OpBatch: "POST /v1/batch", OpReserve: "POST /v1/reserve",
		OpConfirm: "POST /v1/confirm", OpAbort: "POST /v1/abort",
		OpGet: "GET /v1/requests/{id}", OpCancel: "DELETE /v1/requests/{id}",
	}
	n := 0
	for op := OpSubmit; op.Valid(); op++ {
		n++
		if op.Pattern() != want[op] {
			t.Errorf("%s: pattern %q, want %q", op, op.Pattern(), want[op])
		}
	}
	if n != len(want) || Op(0).Valid() || Op(0).String() != "op 0" {
		t.Errorf("%d ops valid; op 0 is %q", n, Op(0))
	}
	if p := OpCancel.Path(42); p != "/v1/requests/42" || OpGet.Method() != "GET" || !OpGet.ByID() || OpBatch.ByID() {
		t.Errorf("cancel path %q", p)
	}
	if p := OpBatch.Path(42); p != "/v1/batch" {
		t.Errorf("batch path %q", p)
	}
}

// TestReplFramesRoundTripAndRefuse pins the stream codec: a batch and the
// gone frame decode to what was encoded, and the decoder refuses a count
// above the pull clamp, a record length of zero or past the WAL's record
// bound, and every truncation.
func TestReplFramesRoundTripAndRefuse(t *testing.T) {
	ev := records(t,
		trace.Event{Kind: trace.EventAccept, Request: 3, RateBps: 1e8, TauS: 100, VolumeB: 1e10, MaxRateBps: 1e9},
		trace.Event{Kind: trace.EventCancel, Request: 3, At: 5})
	b := ShippedBatch{
		Epoch: 7, From: wal.Pos{Seg: 2, Off: 10}, Next: wal.Pos{Seg: 3, Off: 40},
		End: wal.Pos{Seg: 4, Off: 1}, LagBytes: 99, Events: ev,
	}
	frame := AppendReplBatch(nil, &b)
	got, gone, err := DecodeReplFrame(frame)
	if err != nil || gone {
		t.Fatalf("decode: %v gone=%v", err, gone)
	}
	if blob, _ := json.Marshal(got); string(blob) != string(mustJSON(t, b)) {
		t.Fatalf("round trip: got %s, want %s", blob, mustJSON(t, b))
	}
	for n := range frame {
		if _, _, err := DecodeReplFrame(frame[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte frame decoded", n, len(frame))
		}
	}
	if _, gone, err := DecodeReplFrame(AppendReplGone(nil)); err != nil || !gone {
		t.Fatalf("gone frame: gone=%v %v", gone, err)
	}

	many := make([][]byte, MaxShippedRecords+1)
	for i := range many {
		many[i] = []byte("1")
	}
	if _, _, err := DecodeReplFrame(AppendReplBatch(nil, &ShippedBatch{Events: many[:MaxShippedRecords]})); err != nil {
		t.Fatalf("a batch at the clamp: %v", err)
	}
	for name, events := range map[string][][]byte{
		"count above the clamp": many,
		"empty record":          {[]byte("1"), {}},
		"oversized record":      {bytes.Repeat([]byte{'1'}, wal.MaxRecordBytes+1)},
	} {
		if _, _, err := DecodeReplFrame(AppendReplBatch(nil, &ShippedBatch{Events: events})); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, err := DecodeReplAck(AppendPos(nil, wal.Pos{Seg: 1, Off: -1})); err == nil {
		t.Error("cursor frame with a negative offset decoded")
	}
}

// records encodes events as the WAL payloads a batch ships.
func records(t testing.TB, events ...trace.Event) [][]byte {
	t.Helper()
	out := make([][]byte, len(events))
	for i := range events {
		blob, err := trace.AppendRecord(nil, &events[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = blob
	}
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
