package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"testing"

	"gridbw/internal/units"
)

// FuzzDecodeBinaryBatch throws arbitrary bytes at every request-plane
// decoder: they must never panic, and whatever decodes must re-encode to a
// frame that decodes to the same thing.
func FuzzDecodeBinaryBatch(f *testing.F) {
	f.Add([]byte("GBB1"))
	f.Add([]byte("GBR1\x00\x00\x00\x00"))
	f.Add(AppendBatchRequest(nil, []Submission{
		{From: 0, To: 1, Volume: 1e9, MaxRate: 1e8, Deadline: 100, IdempotencyKey: "k"},
	}))
	f.Add(AppendBatchItems(nil, []BatchItemJSON{
		{Reservation: &ReservationJSON{ID: 1, Accepted: true, State: StateBooked, RateBps: 5e7}},
		{Error: "nope"},
	}))
	id := 3
	f.Add(AppendHoldReserveList(nil, []HoldReserveJSON{{Hold: "h", Side: "in", Point: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100}}))
	f.Add(AppendHoldReserveResults(nil, []HoldReserveResponseJSON{{Hold: "h", Held: true, ID: 4, RateBps: 1e7, TauS: 100, Epoch: 1}, {ID: -1, Code: 400, Error: "no"}}))
	f.Add(AppendHoldRefList(nil, []HoldRefJSON{{Hold: "h", Epoch: 1}, {ID: &id}}))
	f.Add(AppendHoldStates(nil, []HoldStateJSON{{Hold: "h", State: "confirmed", Side: "eg", PeerPoint: 1, Epoch: 1}}))
	// Frames carry float bits JSON cannot spell.
	f.Add(AppendBatchRequest(nil, []Submission{
		{From: 0, To: 1, Volume: units.Volume(math.NaN()), MaxRate: units.Bandwidth(math.Inf(1)), NotBefore: units.Time(math.Inf(-1)), Deadline: 100},
	}))
	f.Add(AppendHoldReserveList(nil, []HoldReserveJSON{{Hold: "h", Side: "eg", Point: 1, RateBps: math.NaN(), SigmaS: math.Inf(-1), TauS: math.Inf(1)}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		batch := func(b []byte) ([]Submission, error) { return DecodeBatchRequest(b, 1024) }
		reserve := func(b []byte) ([]HoldReserveJSON, error) { return DecodeHoldReserveList(b, 1024) }
		refs := func(b []byte) ([]HoldRefJSON, error) { return decodeRefList(b, 1024) }
		single := func(dst []byte, ws Submission) []byte { return AppendSubmitRequest(dst, &ws) }
		reencodes(t, "batch request", data, batch, AppendBatchRequest)
		reencodes(t, "single submit", data, DecodeSubmitRequest, single)
		reencodes(t, "batch response", data, DecodeBatchResponse, AppendBatchItems)
		reencodes(t, "reserve list", data, reserve, AppendHoldReserveList)
		reencodes(t, "reserve results", data, DecodeHoldReserveResults, AppendHoldReserveResults)
		reencodes(t, "ref list", data, refs, AppendHoldRefList)
		reencodes(t, "hold states", data, DecodeHoldStates, AppendHoldStates)
		_, _ = DecodeSubmitResponse(data)
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

// callSeeds are one valid call of each op.
func callSeeds() [][]byte {
	ws := Submission{From: 1, To: 0, Volume: 1e9, MaxRate: 1e8, Deadline: 60, RelDeadline: true, IdempotencyKey: "k"}
	id := 7
	frames := map[Op][]byte{
		OpSubmit:  AppendSubmitRequest(nil, &ws),
		OpBatch:   AppendBatchRequest(nil, []Submission{ws, ws}),
		OpReserve: AppendHoldReserveList(nil, []HoldReserveJSON{{Hold: "h", Side: "in", Point: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 9}}),
		OpConfirm: AppendHoldRefList(nil, []HoldRefJSON{{Hold: "h", Epoch: 2}}),
		OpAbort:   AppendHoldRefList(nil, []HoldRefJSON{{ID: &id}}),
		OpGet:     AppendIDFrame(nil, 3),
		OpCancel:  AppendIDFrame(nil, 4),
	}
	var out [][]byte
	for op := OpSubmit; op.Valid(); op++ {
		out = append(out, AppendCall(nil, uint32(op)*3, op, frames[op]))
	}
	return out
}

// reencode decodes frame as op's request and encodes it again; ok is false
// when the decoder refuses it.
func reencode(op Op, frame []byte) (out []byte, ok bool) {
	var err error
	switch op {
	case OpSubmit:
		var ws Submission
		if ws, err = DecodeSubmitRequest(frame); err == nil {
			out = AppendSubmitRequest(nil, &ws)
		}
	case OpBatch:
		var subs []Submission
		if subs, err = DecodeBatchRequest(frame, 0); err == nil {
			out = AppendBatchRequest(nil, subs)
		}
	case OpReserve:
		var reqs []HoldReserveJSON
		if reqs, err = DecodeHoldReserveList(frame, 0); err == nil {
			out = AppendHoldReserveList(nil, reqs)
		}
	case OpConfirm, OpAbort:
		var refs []HoldRefJSON
		if refs, err = decodeRefList(frame, 0); err == nil {
			out = AppendHoldRefList(nil, refs)
		}
	case OpGet, OpCancel:
		var id int
		if id, err = DecodeIDFrame(frame); err == nil {
			out = AppendIDFrame(nil, id)
		}
	}
	return out, err == nil
}

// FuzzCallFrames: over arbitrary bytes, read as a stream of calls and as a
// stream of answers, the readers and decoders never panic; they refuse an
// unknown op or codec, a length past MaxFrameBytes and every truncation;
// what they accept re-encodes to the same bytes (a request frame to a fixed
// point: its flag bits and an absent id's slot are free).
func FuzzCallFrames(f *testing.F) {
	for _, seed := range callSeeds() {
		f.Add(seed)
	}
	f.Add(bytes.Join(callSeeds(), nil))
	shed := AppendAnswerHeader(nil, 9, http.StatusTooManyRequests, CodecJSON)
	f.Add(AppendJSONFrame(shed, ErrorJSON{Error: "busy", RetryAfterS: 1}))
	f.Add(append(AppendAnswerHeader(nil, 0, http.StatusCreated, CodecFrame),
		AppendBatchItems(nil, []BatchItemJSON{{Reservation: &ReservationJSON{}}})...))
	f.Add(AppendCall(nil, 1, 9, AppendIDFrame(nil, 1)))
	f.Add(binary.LittleEndian.AppendUint32(append(AppendCall(nil, 1, OpGet, nil), idMagic...), MaxFrameBytes+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for off := 0; ; {
			tag, op, frame, err := ReadCall(r, nil)
			if err != nil {
				break
			}
			call := AppendCall(nil, tag, op, frame)
			end := len(data) - r.Len()
			if !bytes.Equal(call, data[off:end]) {
				t.Fatalf("call at %d re-encodes to %x, read %x", off, call, data[off:end])
			}
			if !op.Valid() || len(frame) > frameHeaderSize+MaxFrameBytes {
				t.Fatalf("accepted op %d with a %d-byte frame", op, len(frame))
			}
			for _, cut := range []int{len(call) - 1, len(call) / 2, 4} {
				if _, _, _, err := ReadCall(bytes.NewReader(call[:cut]), nil); err == nil {
					t.Fatalf("a call cut to %d of %d bytes was accepted", cut, len(call))
				}
			}
			if once, ok := reencode(op, frame); ok {
				twice, ok := reencode(op, once)
				if !ok || !bytes.Equal(once, twice) {
					t.Fatalf("op %d frame %x re-encodes to %x, then %x (%v)", op, frame, once, twice, ok)
				}
				if op.ByID() && !bytes.Equal(once, frame) {
					t.Fatalf("id frame %x re-encodes to %x", frame, once)
				}
			}
			off = end
		}

		r = bytes.NewReader(data)
		fb := NewFrameBuf()
		defer fb.Release()
		for off := 0; ; {
			tag, status, codec, body, err := ReadAnswer(r, fb)
			if err != nil {
				break
			}
			answer := AppendAnswerHeader(nil, tag, status, codec)
			if codec == CodecJSON {
				answer = binary.LittleEndian.AppendUint32(append(answer, jsonMagic...), uint32(len(body)))
			}
			answer = append(answer, body...)
			end := len(data) - r.Len()
			if !bytes.Equal(answer, data[off:end]) {
				t.Fatalf("answer at %d re-encodes to %x, read %x", off, answer, data[off:end])
			}
			if _, _, _, _, err := ReadAnswer(bytes.NewReader(answer[:len(answer)-1]), NewFrameBuf()); err == nil {
				t.Fatal("an answer cut by one byte was accepted")
			}
			off = end
		}
	})
}
