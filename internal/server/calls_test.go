package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/server/client"
)

// TestStreamPanickingOpIsCounted: a call that panics on the stream is
// counted and audited like a handler panic, answers 500, and the calls
// after it on the same connection go on.
func TestStreamPanickingOpIsCounted(t *testing.T) {
	server.PanicOn(t, server.OpGet)
	srv := newTestServer(t, uniformConfig(nil))
	var reached atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := client.NewWithOptions(ts.URL, nil, client.Options{MaxRetries: -1})
	defer c.Close()
	ctx := context.Background()
	req := server.SubmitRequest{From: 0, To: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 1e4}
	first, err := c.Submit(ctx, req)
	if err != nil || !first.Accepted {
		t.Fatalf("submit = %+v, %v", first, err)
	}
	_, err = c.Get(ctx, first.ID)
	if ae, ok := err.(*client.APIError); !ok || ae.StatusCode != http.StatusInternalServerError {
		t.Fatalf("get through a panicking op err = %v, want 500", err)
	}
	if next, err := c.Submit(ctx, req); err != nil || !next.Accepted {
		t.Fatalf("submit after the panic = %+v, %v", next, err)
	}
	if st := srv.Status(); st.Stats.Panics != 1 || st.Stats.Accepted != 2 {
		t.Errorf("panics %d, accepted %d; want 1 and 2", st.Stats.Panics, st.Stats.Accepted)
	}
	if n := reached.Load(); n != 1 {
		t.Errorf("%d HTTP requests, want the three calls on one stream", n)
	}
}

// TestUpgradeOfferTokens: the offer is the Upgrade token, case aside, plus
// an "upgrade" token anywhere in any Connection header.
func TestUpgradeOfferTokens(t *testing.T) {
	for _, tc := range []struct {
		connection []string
		upgrade    string
		want       bool
	}{
		{[]string{"Upgrade"}, server.CallProtocol, true},
		{[]string{"keep-alive, upgrade"}, "GRIDBW-CALL/1", true},
		{[]string{"keep-alive", " Upgrade "}, server.CallProtocol, true},
		{[]string{"keep-alive"}, server.CallProtocol, false},
		{[]string{"Upgrade"}, "gridbw-repl/1", false},
		{[]string{"upgraded"}, server.CallProtocol, false},
		{nil, server.CallProtocol, false},
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/requests/1", nil)
		for _, v := range tc.connection {
			r.Header.Add("Connection", v)
		}
		r.Header.Set("Upgrade", tc.upgrade)
		if got := server.WantsUpgrade(r, server.CallProtocol); got != tc.want {
			t.Errorf("Connection %q, Upgrade %q: offer = %v, want %v", tc.connection, tc.upgrade, got, tc.want)
		}
	}
}

// callSeeds are one valid call of each op.
func callSeeds() [][]byte {
	ws := server.WireSubmission{From: 1, To: 0, Volume: 1e9, MaxRate: 1e8, Deadline: 60, RelDeadline: true, IdempotencyKey: "k"}
	id := 7
	frames := map[byte][]byte{
		server.OpSubmit:  server.AppendBinarySubmitRequest(nil, &ws),
		server.OpBatch:   server.AppendBinaryBatchRequest(nil, []server.WireSubmission{ws, ws}),
		server.OpReserve: server.AppendHoldReserveList(nil, []server.HoldReserveJSON{{Hold: "h", Side: "in", Point: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 9}}),
		server.OpConfirm: server.AppendHoldRefList(nil, []server.HoldRefJSON{{Hold: "h", Epoch: 2}}),
		server.OpAbort:   server.AppendHoldRefList(nil, []server.HoldRefJSON{{ID: &id}}),
		server.OpGet:     server.AppendIDFrame(nil, 3),
		server.OpCancel:  server.AppendIDFrame(nil, 4),
	}
	var out [][]byte
	for op := server.OpSubmit; op <= server.OpCancel; op++ {
		out = append(out, server.AppendCall(nil, uint32(op)*3, op, frames[op]))
	}
	return out
}

// reencode decodes frame as op's request and encodes it again; ok is false
// when the decoder refuses it.
func reencode(op byte, frame []byte) (out []byte, ok bool) {
	var err error
	switch op {
	case server.OpSubmit:
		var ws server.WireSubmission
		if ws, err = server.DecodeBinarySubmitRequest(frame); err == nil {
			out = server.AppendBinarySubmitRequest(nil, &ws)
		}
	case server.OpBatch:
		var subs []server.WireSubmission
		if subs, err = server.DecodeBinaryBatchRequest(frame, 0); err == nil {
			out = server.AppendBinaryBatchRequest(nil, subs)
		}
	case server.OpReserve:
		var reqs []server.HoldReserveJSON
		if reqs, err = server.DecodeHoldReserveList(frame, 0); err == nil {
			out = server.AppendHoldReserveList(nil, reqs)
		}
	case server.OpConfirm, server.OpAbort:
		var refs []server.HoldRefJSON
		if refs, err = server.DecodeHoldRefList(frame, 0); err == nil {
			out = server.AppendHoldRefList(nil, refs)
		}
	case server.OpGet, server.OpCancel:
		var id int
		if id, err = server.DecodeIDFrame(frame); err == nil {
			out = server.AppendIDFrame(nil, id)
		}
	}
	return out, err == nil
}

// FuzzCallFrames: over arbitrary bytes, read as a stream of calls and as a
// stream of answers, the readers and decoders never panic; they refuse an
// unknown op or codec, a length past MaxBinaryBatchBytes and every
// truncation; what they accept re-encodes to the same bytes (a request
// frame to a fixed point: its flag bits and an absent id's slot are free).
func FuzzCallFrames(f *testing.F) {
	for _, seed := range callSeeds() {
		f.Add(seed)
	}
	f.Add(bytes.Join(callSeeds(), nil))
	shed := server.AppendAnswerHeader(nil, 9, http.StatusTooManyRequests, server.CodecJSON)
	f.Add(server.AppendJSONFrame(shed, server.ErrorJSON{Error: "busy", RetryAfterS: 1}))
	f.Add(append(server.AppendAnswerHeader(nil, 0, http.StatusCreated, server.CodecFrame),
		server.AppendBinaryBatchResponse(nil, []server.BatchResult{{}})...))
	f.Add(server.AppendCall(nil, 1, 9, server.AppendIDFrame(nil, 1)))
	f.Add(binary.LittleEndian.AppendUint32(append(server.AppendCall(nil, 1, server.OpGet, nil), "GBI1"...), server.MaxBinaryBatchBytes+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for off := 0; ; {
			tag, op, frame, err := server.ReadCall(r, nil)
			if err != nil {
				break
			}
			call := server.AppendCall(nil, tag, op, frame)
			end := len(data) - r.Len()
			if !bytes.Equal(call, data[off:end]) {
				t.Fatalf("call at %d re-encodes to %x, read %x", off, call, data[off:end])
			}
			if op < server.OpSubmit || op > server.OpCancel || len(frame) > 8+server.MaxBinaryBatchBytes {
				t.Fatalf("accepted op %d with a %d-byte frame", op, len(frame))
			}
			for _, cut := range []int{len(call) - 1, len(call) / 2, 4} {
				if _, _, _, err := server.ReadCall(bytes.NewReader(call[:cut]), nil); err == nil {
					t.Fatalf("a call cut to %d of %d bytes was accepted", cut, len(call))
				}
			}
			if once, ok := reencode(op, frame); ok {
				twice, ok := reencode(op, once)
				if !ok || !bytes.Equal(once, twice) {
					t.Fatalf("op %d frame %x re-encodes to %x, then %x (%v)", op, frame, once, twice, ok)
				}
				if (op == server.OpGet || op == server.OpCancel) && !bytes.Equal(once, frame) {
					t.Fatalf("id frame %x re-encodes to %x", frame, once)
				}
			}
			off = end
		}

		r = bytes.NewReader(data)
		fb := server.NewFrameBuf()
		defer fb.Release()
		for off := 0; ; {
			tag, status, codec, body, err := server.ReadAnswer(r, fb)
			if err != nil {
				break
			}
			answer := server.AppendAnswerHeader(nil, tag, status, codec)
			if codec == server.CodecJSON {
				answer = binary.LittleEndian.AppendUint32(append(answer, "GBJ1"...), uint32(len(body)))
			}
			answer = append(answer, body...)
			end := len(data) - r.Len()
			if !bytes.Equal(answer, data[off:end]) {
				t.Fatalf("answer at %d re-encodes to %x, read %x", off, answer, data[off:end])
			}
			if _, _, _, _, err := server.ReadAnswer(bytes.NewReader(answer[:len(answer)-1]), server.NewFrameBuf()); err == nil {
				t.Fatal("an answer cut by one byte was accepted")
			}
			off = end
		}
	})
}
