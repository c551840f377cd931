package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/units"
)

// The JSON≡frames proof. Two identical daemons on one fake clock are driven
// through the same schedule of submits, batches, reserves, confirms and
// aborts — one in JSON, the way curl speaks, one in the frames of wire.go,
// the way gridbw processes speak — and must give the same answer to every
// call: status, decisions field for field, idempotent replays included.
// Schedules come from bytes, so one harness serves the seeded test and the
// fuzz target.

const faceMaxBatch = 8

// face is one daemon spoken to in one codec.
type face struct {
	srv    *server.Server
	h      http.Handler
	framed bool
}

func newFaces(t *testing.T, clk *fakeClock) (jsonFace, frameFace *face) {
	mk := func(framed bool) *face {
		cfg := uniformConfig(clk)
		cfg.MaxBatch = faceMaxBatch
		srv := newTestServer(t, cfg)
		return &face{srv: srv, h: srv.Handler(), framed: framed}
	}
	return mk(false), mk(true)
}

func (f *face) post(path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if f.framed {
		req.Header.Set("Content-Type", server.BinaryBatchContentType)
	}
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, req)
	return rec
}

// answer is what one call came back with, in a form two codecs can be
// compared in: the status, the error envelope of a failure, the decoded
// value of a success.
type answer struct {
	code  int
	err   string
	value any
}

// call posts one request — v marshalled as JSON, or encoded by frame — and
// decodes the answer in the codec it was asked in.
func call[A any](t testing.TB, f *face, path string, v any, frame []byte,
	fromJSON func([]byte) (A, error), fromFrame func([]byte) (A, error)) answer {
	t.Helper()
	body := frame
	if !f.framed {
		var err error
		if body, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	rec := f.post(path, body)
	ans := answer{code: rec.Code}
	if rec.Code >= 300 {
		var env server.ErrorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
			t.Fatalf("%s answered %d without an error envelope: %q", path, rec.Code, rec.Body.String())
		}
		ans.err = env.Error
		return ans
	}
	decode, wantCT := fromJSON, "application/json"
	if f.framed {
		decode, wantCT = fromFrame, server.BinaryBatchContentType
	}
	if ct := rec.Header().Get("Content-Type"); ct != wantCT {
		t.Fatalf("%s answered Content-Type %q to a %q request", path, ct, wantCT)
	}
	val, err := decode(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("%s: decode answer: %v", path, err)
	}
	ans.value = val
	return ans
}

func unmarshal[A any](b []byte) (A, error) {
	var v A
	err := json.Unmarshal(b, &v)
	return v, err
}

func (f *face) submit(t testing.TB, req server.SubmitRequest) answer {
	ws, err := req.Wire()
	if err != nil {
		t.Fatalf("schedule generated an unframeable request: %v", err)
	}
	ans := call(t, f, "/v1/requests", req, server.AppendBinarySubmitRequest(nil, &ws),
		unmarshal[server.ReservationJSON], server.DecodeBinarySubmitResponse)
	if rj, ok := ans.value.(server.ReservationJSON); ok {
		rj.Rate = "" // the human string is JSON's alone
		ans.value = rj
	}
	return ans
}

func (f *face) batch(t testing.TB, reqs []server.SubmitRequest) answer {
	subs := make([]server.WireSubmission, len(reqs))
	for i, req := range reqs {
		var err error
		if subs[i], err = req.Wire(); err != nil {
			t.Fatalf("schedule generated an unframeable request: %v", err)
		}
	}
	ans := call(t, f, "/v1/batch", server.BatchRequest{Requests: reqs}, server.AppendBinaryBatchRequest(nil, subs),
		func(b []byte) ([]server.BatchItemJSON, error) {
			resp, err := unmarshal[server.BatchResponse](b)
			return resp.Results, err
		}, server.DecodeBinaryBatchResponse)
	if items, ok := ans.value.([]server.BatchItemJSON); ok {
		flat := make([]any, len(items))
		for i, it := range items {
			if it.Reservation == nil {
				flat[i] = it.Error
				continue
			}
			rj := *it.Reservation
			rj.Rate = ""
			flat[i] = rj
		}
		ans.value = flat
	}
	return ans
}

func holdResults[A any](b []byte) ([]A, error) {
	resp, err := unmarshal[server.HoldResultsJSON[A]](b)
	return resp.Results, err
}

func (f *face) reserve(t testing.TB, reqs []server.HoldReserveJSON) answer {
	return call(t, f, "/v1/reserve", server.HoldListJSON[server.HoldReserveJSON]{Holds: reqs},
		server.AppendHoldReserveList(nil, reqs), holdResults[server.HoldReserveResponseJSON], server.DecodeHoldReserveResults)
}

func (f *face) refs(t testing.TB, path string, refs []server.HoldRefJSON) answer {
	return call(t, f, path, server.HoldListJSON[server.HoldRefJSON]{Holds: refs},
		server.AppendHoldRefList(nil, refs), holdResults[server.HoldStateJSON], server.DecodeHoldStates)
}

// schedule reads a call schedule off a byte string; exhausted, it yields
// zeros, which ends the schedule.
type schedule struct {
	data []byte
	off  int
}

func (sc *schedule) next() int {
	if sc.off >= len(sc.data) {
		return 0
	}
	sc.off++
	return int(sc.data[sc.off-1])
}

func (sc *schedule) done() bool { return sc.off >= len(sc.data) }

func pickOf[T any](sc *schedule, vs ...T) T { return vs[sc.next()%len(vs)] }

// point draws an access point of the 2×2 platform, or now and then one
// just off it.
func (sc *schedule) point() int { return pickOf(sc, 0, 1, 0, 1, 0, 1, -1, 2) }

// submission draws one request: points on and off the 2×2 platform,
// quantities feasible and not, in base units or — where JSON has a human
// spelling that parses to exactly the same float — spelled out; a small key
// alphabet so that schedules replay keys.
func (sc *schedule) submission() server.SubmitRequest {
	req := server.SubmitRequest{From: sc.point(), To: sc.point()}
	switch v := sc.next() % 8; v {
	case 0:
		req.Volume = "10GB"
	case 1:
		req.Volume = "250MB"
	default:
		req.VolumeBytes = []float64{0, -1e9, 1e8, 1e9, 1e10, 1e11, 5e11, 3.3e9}[v]
	}
	switch v := sc.next() % 6; v {
	case 0:
		req.MaxRate = "100MB/s"
	default:
		req.MaxRateBps = []float64{0, 0, 1e7, 1e8, 1e9, 2.5e8}[v]
	}
	if v := sc.next() % 4; v == 0 {
		req.StartIn = pickOf(sc, "0s", "30s", "10m")
	} else {
		req.NotBeforeS = []float64{0, 0, 40, 700}[v]
	}
	if v := sc.next() % 6; v == 0 {
		req.DeadlineIn = pickOf(sc, "60s", "300s", "1h")
	} else {
		req.DeadlineS = []float64{0, 0, 100, 500, 2000, 90000}[v]
	}
	if k := sc.next() % 12; k < 8 {
		req.IdempotencyKey = fmt.Sprintf("k%d", k)
	}
	req.Durable = sc.next()%5 == 0
	return req
}

func (sc *schedule) holdKey() string {
	if k := sc.next() % 16; k < 15 {
		return fmt.Sprintf("h%d", k)
	}
	return ""
}

func (sc *schedule) holdReserve() server.HoldReserveJSON {
	return server.HoldReserveJSON{
		Hold: sc.holdKey(), Side: pickOf(sc, "in", "eg", "in", "eg", "", "sideways"),
		Point: sc.point(), PeerPoint: sc.next() % 2,
		TTLS: pickOf[float64](sc, 0, 0.5, 5, 1000), RelTimes: sc.next()%2 == 0,
		VolumeBytes: pickOf[float64](sc, 0, 1e9, 1e10, 1e12), MaxRateBps: pickOf[float64](sc, 0, 1e8, 1e9),
		NotBeforeS: pickOf[float64](sc, 0, 0, 50), DeadlineS: pickOf[float64](sc, 0, 100, 1000, 5000),
		RateBps: pickOf[float64](sc, 0, 5e7, 9e8), SigmaS: pickOf[float64](sc, 0, 0, 20, -5), TauS: pickOf[float64](sc, 0, 200, 900),
	}
}

func (sc *schedule) holdRef() server.HoldRefJSON {
	ref := server.HoldRefJSON{Hold: sc.holdKey()}
	switch v := sc.next() % 32; {
	case v == 0:
		ref.Epoch = 2 // fences the whole confirm off
	case v < 8:
		ref.Epoch = 1
	}
	if v := sc.next() % 16; v < 6 {
		id := v - 1
		ref.ID = &id
	}
	return ref
}

// listLen draws a list length: mostly within the limit, now and then
// empty or one too many (the whole call is refused, in either codec).
func (sc *schedule) listLen() int {
	return sc.next() % (faceMaxBatch + 2)
}

// runSchedule plays data against a fresh pair of daemons and fails on the
// first call the two codecs answer differently, or on state that differs
// at the end.
func runSchedule(t *testing.T, data []byte) {
	clk := &fakeClock{}
	jf, ff := newFaces(t, clk)
	sc := &schedule{data: data}
	for step := 0; !sc.done(); step++ {
		var ja, fa answer
		var what string
		sized := true // false for a list outside [1, max]: refused by count, worded per codec
		switch sc.next() % 6 {
		case 0:
			req := sc.submission()
			what = fmt.Sprintf("submit %+v", req)
			ja, fa = jf.submit(t, req), ff.submit(t, req)
		case 1:
			reqs := make([]server.SubmitRequest, sc.listLen())
			for i := range reqs {
				reqs[i] = sc.submission()
			}
			what, sized = fmt.Sprintf("batch %+v", reqs), len(reqs) >= 1 && len(reqs) <= faceMaxBatch
			ja, fa = jf.batch(t, reqs), ff.batch(t, reqs)
		case 2:
			reqs := make([]server.HoldReserveJSON, sc.listLen())
			for i := range reqs {
				reqs[i] = sc.holdReserve()
			}
			what, sized = fmt.Sprintf("reserve %+v", reqs), len(reqs) >= 1 && len(reqs) <= faceMaxBatch
			ja, fa = jf.reserve(t, reqs), ff.reserve(t, reqs)
		case 3, 4:
			path := pickOf(sc, "/v1/confirm", "/v1/confirm", "/v1/confirm", "/v1/abort")
			refs := make([]server.HoldRefJSON, sc.listLen())
			for i := range refs {
				refs[i] = sc.holdRef()
			}
			what, sized = fmt.Sprintf("%s %+v", path, refs), len(refs) >= 1 && len(refs) <= faceMaxBatch
			ja, fa = jf.refs(t, path, refs), ff.refs(t, path, refs)
		case 5:
			clk.advance(time.Duration(sc.next()%40) * 500 * time.Millisecond)
			continue
		}
		if !sized {
			if ja.code != http.StatusBadRequest || fa.code != http.StatusBadRequest {
				t.Fatalf("step %d: %s: list outside the limit answered %d in JSON, %d framed", step, what, ja.code, fa.code)
			}
			continue
		}
		if !reflect.DeepEqual(ja, fa) {
			t.Fatalf("step %d: %s\n JSON   answered %+v\n frames answered %+v", step, what, ja, fa)
		}
	}
	js, fs := jf.srv.Status(), ff.srv.Status()
	js.Stats.AdmitLatency, fs.Stats.AdmitLatency = nil, nil // wall-clock timings
	if !reflect.DeepEqual(js, fs) {
		t.Fatalf("daemons ended in different states:\n JSON   %+v\n frames %+v", js, fs)
	}
	for _, f := range []*face{jf, ff} {
		if err := f.srv.VerifyInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFramesDecideLikeJSON plays seeded random schedules.
func TestFramesDecideLikeJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 60; round++ {
		data := make([]byte, 200+rng.Intn(1200))
		rng.Read(data)
		runSchedule(t, data)
	}
}

// FuzzFramesDecideLikeJSON lets the fuzzer write the schedules.
func FuzzFramesDecideLikeJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		data := make([]byte, 300)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(runSchedule)
}

// bookings is everything a request could have left behind on a daemon.
type bookings struct {
	submitted, hits uint64
	live            int
	held, confirmed int
}

func bookingsOf(s *server.Server) bookings {
	st := s.Status()
	b := bookings{submitted: st.Stats.Submitted, hits: st.Stats.IdempotentHits, live: len(s.LiveReservations())}
	b.held, b.confirmed = s.HoldStats()
	return b
}

// TestMalformedFrameBooksNothing: every strict prefix of a valid frame,
// a frame with bytes behind it, a frame of another endpoint and plain
// garbage are each a 400 with a JSON envelope on all five endpoints, and
// leave the daemon exactly as they found it.
func TestMalformedFrameBooksNothing(t *testing.T) {
	clk := &fakeClock{}
	_, ff := newFaces(t, clk)
	id := 0
	valid := map[string][]byte{
		"/v1/requests": server.AppendBinarySubmitRequest(nil, &server.WireSubmission{
			From: 0, To: 1, Volume: 1e9, MaxRate: 1e8, Deadline: 100, IdempotencyKey: "k"}),
		"/v1/batch": server.AppendBinaryBatchRequest(nil, []server.WireSubmission{
			{From: 0, To: 1, Volume: 1e9, MaxRate: 1e8, Deadline: 100, IdempotencyKey: "a"},
			{From: 1, To: 0, Volume: 1e9, MaxRate: 1e8, Deadline: 100}}),
		"/v1/reserve": server.AppendHoldReserveList(nil, []server.HoldReserveJSON{
			{Hold: "h", Side: "in", Point: 0, PeerPoint: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 100}}),
		"/v1/confirm": server.AppendHoldRefList(nil, []server.HoldRefJSON{{Hold: "h", Epoch: 1}}),
		"/v1/abort":   server.AppendHoldRefList(nil, []server.HoldRefJSON{{Hold: "h"}, {ID: &id}}),
	}
	before := bookingsOf(ff.srv)
	refused := func(path, what string, body []byte) {
		t.Helper()
		rec := ff.post(path, body)
		var env server.ErrorJSON
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error == "" {
			t.Fatalf("%s: %s answered %d %q, want 400 with an error envelope", path, what, rec.Code, rec.Body.String())
		}
		if after := bookingsOf(ff.srv); after != before {
			t.Fatalf("%s: %s was refused but left %+v, was %+v", path, what, after, before)
		}
	}
	for path, frame := range valid {
		for cut := 0; cut < len(frame); cut++ {
			refused(path, fmt.Sprintf("frame cut at byte %d of %d", cut, len(frame)), frame[:cut])
		}
		refused(path, "frame with a trailing byte", append(append([]byte(nil), frame...), 0))
		refused(path, "garbage", []byte("GBB1garbage"))
		refused(path, "JSON under the frame content type", []byte(`{"from":0,"to":1}`))
		other := valid["/v1/confirm"]
		if path == "/v1/confirm" || path == "/v1/abort" {
			other = valid["/v1/batch"]
		}
		refused(path, "another endpoint's frame", other)
	}
	// A well-formed frame whose numbers are not: JSON cannot say NaN, the
	// frame can (nonfinite_test.go goes through every field).
	refused("/v1/requests", "NaN volume", server.AppendBinarySubmitRequest(nil, &server.WireSubmission{
		From: 0, To: 1, Volume: units.Volume(math.NaN()), MaxRate: 1e8, Deadline: 100, IdempotencyKey: "nan"}))
	two := server.AppendBinaryBatchRequest(nil, make([]server.WireSubmission, 2))
	refused("/v1/requests", "two-record frame", two)
	big := server.AppendBinaryBatchRequest(nil, make([]server.WireSubmission, faceMaxBatch+1))
	refused("/v1/batch", "oversized batch", big)
	// And the valid frames are not refused: the harness above would pass
	// vacuously against a daemon that refuses everything.
	for _, path := range []string{"/v1/requests", "/v1/batch", "/v1/reserve", "/v1/confirm", "/v1/abort"} {
		if rec := ff.post(path, valid[path]); rec.Code >= 300 {
			t.Fatalf("%s: valid frame answered %d %s", path, rec.Code, rec.Body.String())
		}
	}
}
