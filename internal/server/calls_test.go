package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/wire"
)

// TestStreamPanickingOpIsCounted: a call that panics on the stream is
// counted and audited like a handler panic, answers 500, and the calls
// after it on the same connection go on.
func TestStreamPanickingOpIsCounted(t *testing.T) {
	server.PanicOn(t, wire.OpGet)
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
	req := wire.SubmitRequest{From: 0, To: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 1e4}
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

// FuzzCallFrames plays arbitrary bytes down a live daemon's call stream,
// behind the call that upgraded it: the daemon answers what it can read
// and hangs up on what it cannot, and never panics or answers 5xx, and its
// state passes the audit after. (internal/wire's FuzzCallFrames fuzzes the
// stream's readers themselves.)
func FuzzCallFrames(f *testing.F) {
	ws := wire.Submission{From: 1, To: 0, Volume: 1e9, MaxRate: 1e8, Deadline: 60, RelDeadline: true, IdempotencyKey: "k"}
	id := 7
	frames := map[wire.Op][]byte{
		wire.OpSubmit:  wire.AppendSubmitRequest(nil, &ws),
		wire.OpBatch:   wire.AppendBatchRequest(nil, []wire.Submission{ws, ws}),
		wire.OpReserve: wire.AppendHoldReserveList(nil, []wire.HoldReserveJSON{{Hold: "h", Side: "in", Point: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 9}}),
		wire.OpConfirm: wire.AppendHoldRefList(nil, []wire.HoldRefJSON{{Hold: "h", Epoch: 2}}),
		wire.OpAbort:   wire.AppendHoldRefList(nil, []wire.HoldRefJSON{{ID: &id}}),
		wire.OpGet:     wire.AppendIDFrame(nil, 3),
		wire.OpCancel:  wire.AppendIDFrame(nil, 4),
	}
	var calls [][]byte
	for op := wire.OpSubmit; op.Valid(); op++ {
		calls = append(calls, wire.AppendCall(nil, uint32(op)*3, op, frames[op]))
		f.Add(calls[len(calls)-1])
	}
	f.Add(bytes.Join(calls, nil))
	shed := wire.AppendAnswerHeader(nil, 9, http.StatusTooManyRequests, wire.CodecJSON)
	f.Add(wire.AppendJSONFrame(shed, wire.ErrorJSON{Error: "busy", RetryAfterS: 1}))
	f.Add(append(wire.AppendAnswerHeader(nil, 0, http.StatusCreated, wire.CodecFrame),
		server.AppendBinaryBatchResponse(nil, []server.BatchResult{{}})...))
	f.Add(wire.AppendCall(nil, 1, 9, wire.AppendIDFrame(nil, 1)))
	f.Add(binary.LittleEndian.AppendUint32(append(wire.AppendCall(nil, 1, wire.OpGet, nil), "GBI1"...), wire.MaxFrameBytes+1))
	s := newTestServer(f, uniformConfig(&fakeClock{}))
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		offer := "GET " + wire.OpGet.Path(0) + " HTTP/1.1\r\nHost: gridbw\r\nConnection: Upgrade\r\nUpgrade: " + wire.CallProtocol + "\r\n\r\n"
		if _, err := conn.Write(append([]byte(offer), data...)); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, nil)
		if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
			t.Fatalf("offer answered %v, %v", resp, err)
		}
		fb := wire.NewFrameBuf()
		defer fb.Release()
		for {
			_, status, _, body, err := wire.ReadAnswer(br, fb)
			if err != nil {
				break
			}
			if status >= 500 {
				t.Fatalf("answered %d %s to %x", status, body, data)
			}
		}
		if err := s.VerifyInvariant(); err != nil {
			t.Fatalf("after %x: %v", data, err)
		}
		if st := s.Status(); st.Stats.Panics != 0 {
			t.Fatalf("%d panics", st.Stats.Panics)
		}
	})
}
