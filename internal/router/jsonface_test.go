package router

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gridbw/internal/server"
)

var updateJSONFace = flag.Bool("update-json-face", false,
	"rewrite testdata/json_face.golden from this build (run it on the commit whose JSON face is the reference)")

// TestRouterJSONFaceGolden pins what curl sees through the router, byte
// for byte, across the change that put frames between the router and its
// shards: a proxied same-shard decision keeps the shard's human-readable
// rate, cross-shard decisions keep their marker, errors their envelopes.
// The golden file was captured by running this same script on the commit
// before (PR 15, with -update-json-face).
func TestRouterJSONFaceGolden(t *testing.T) {
	epoch := time.Unix(1000, 0)
	tier := newTierWith(t, 2, func(_ int, cfg *server.Config) {
		cfg.Clock = func() time.Time { return epoch }
	})
	sFrom, sTo, xFrom, xTo := tier.pairs(t)
	h := tier.rt.Handler()
	var out strings.Builder
	do := func(name, path, body string, header ...string) {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		for i := 0; i+1 < len(header); i += 2 {
			req.Header.Set(header[i], header[i+1])
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&out, "### %s: POST %s\n%d\nContent-Type: %s\n%s\n", name, path, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	sub := func(from, to int, rest string) string {
		return fmt.Sprintf(`{"from":%d,"to":%d,%s}`, from, to, rest)
	}
	const fits = `"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":1000`
	do("same-shard accepted", "/v1/requests", sub(sFrom, sTo, fits+`,"idempotency_key":"a"`))
	do("same-shard replayed", "/v1/requests", sub(sFrom, sTo, fits), "Idempotency-Key", "a")
	do("same-shard human quantities", "/v1/requests", sub(sFrom, sTo, `"volume":"1GB","max_rate":"100MB/s","start_in":"1m","deadline_in":"1h"`))
	do("same-shard rejected", "/v1/requests", sub(sFrom, sTo, `"volume_bytes":1e12,"max_rate_bps":1e8,"deadline_s":1000`))
	do("cross-shard accepted", "/v1/requests", sub(xFrom, xTo, fits+`,"idempotency_key":"b"`))
	do("cross-shard booked ahead", "/v1/requests", sub(xFrom, xTo, `"volume":"1GB","max_rate":"100MB/s","start_in":"1m","deadline_in":"1h","idempotency_key":"c"`))
	do("cross-shard rejected", "/v1/requests", sub(xFrom, xTo, `"volume_bytes":1e12,"max_rate_bps":1e8,"deadline_s":1000,"idempotency_key":"d"`))
	do("cross-shard mixes clocks", "/v1/requests", sub(xFrom, xTo, `"volume_bytes":1e9,"max_rate_bps":1e8,"start_in":"1m","deadline_s":1000,"idempotency_key":"e"`))
	do("key and header disagree", "/v1/requests", sub(sFrom, sTo, fits+`,"idempotency_key":"a"`), "Idempotency-Key", "z")
	do("not JSON", "/v1/requests", `{"from":`)
	do("unknown field", "/v1/requests", `{"from":0,"to":0,"colour":"red"}`)
	do("volume twice", "/v1/requests", sub(sFrom, sTo, `"volume":"1GB","volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":1000`))
	do("shard refuses", "/v1/requests", sub(sFrom, sTo, `"max_rate_bps":1e8,"deadline_s":1000`))
	// Same-shard slices and the hold waves run concurrently and may share
	// an ingress owner, so a batch that mixes them draws its IDs in racing
	// order; each of these batches has one kind.
	do("batch same-shard", "/v1/batch", `{"requests":[`+
		sub(sFrom, sTo, fits+`,"idempotency_key":"f"`)+`,`+
		sub(sFrom, sTo, `"volume":"x"`)+`,`+
		sub(sFrom, sTo, fits+`,"idempotency_key":"a"`)+`]}`)
	do("batch cross-shard", "/v1/batch", `{"requests":[`+
		sub(xFrom, xTo, fits+`,"idempotency_key":"g"`)+`,`+
		sub(xFrom, xTo, `"volume_bytes":1e12,"max_rate_bps":1e8,"deadline_s":1000,"idempotency_key":"h"`)+`,`+
		sub(xFrom, xTo, fits+`,"idempotency_key":"b"`)+`]}`)
	do("batch: empty", "/v1/batch", `{"requests":[]}`)
	do("batch: not JSON", "/v1/batch", `[`)

	const golden = "testdata/json_face.golden"
	got := out.String()
	if *updateJSONFace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("JSON face moved at transcript line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("JSON face moved: transcript has %d lines, golden %d", len(gl), len(wl))
	}
}

// tierBookings is everything a request could have left behind on the
// tier's shards.
type tierBookings struct {
	submitted, hits       uint64
	live, held, confirmed int
}

func (tier *testTier) bookings() tierBookings {
	var b tierBookings
	for _, srv := range tier.servers {
		st := srv.Status()
		b.submitted += st.Stats.Submitted
		b.hits += st.Stats.IdempotentHits
		b.live += len(srv.LiveReservations())
		held, confirmed := srv.HoldStats()
		b.held += held
		b.confirmed += confirmed
	}
	return b
}

// settle polls the tier's bookings until done says they are settled, or a
// few seconds pass: the router rolls a failed cross-shard item's holds back
// on a goroutine of its own, after it has answered.
func (tier *testTier) settle(done func(tierBookings) bool) tierBookings {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if b := tier.bookings(); done(b) || time.Now().After(deadline) {
			return b
		}
		time.Sleep(time.Millisecond)
	}
}

// newFrozenTier is a two-shard tier whose shard clocks stand still, so
// nothing it books expires while a test compares bookings.
func newFrozenTier(t testing.TB) *testTier {
	epoch := time.Unix(1000, 0)
	return newTierWith(t, 2, func(_ int, cfg *server.Config) {
		cfg.Clock = func() time.Time { return epoch }
	})
}

// TestRouterJSONBodyIsBounded: the router reads a JSON body under the framed
// bound, so a submit padded past 8 MiB with whitespace inside the object is
// refused and books nothing on any shard.
func TestRouterJSONBodyIsBounded(t *testing.T) {
	tier := newFrozenTier(t)
	sFrom, sTo, _, _ := tier.pairs(t)
	before := tier.bookings()
	body := fmt.Sprintf(`{"from":%d,%s"to":%d,"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":1000}`,
		sFrom, strings.Repeat(" ", 9<<20), sTo)
	rec := httptest.NewRecorder()
	tier.rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/requests", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("a 9 MiB JSON submit answered %d %.200s, want 400", rec.Code, rec.Body.String())
	}
	if after := tier.bookings(); after != before {
		t.Fatalf("a refused 9 MiB JSON submit left %+v, was %+v", after, before)
	}
}

// TestRouterJSONCallIsNeverUpgraded: a JSON submit or batch that offers the
// call stream is answered in JSON over plain HTTP, never with 101.
func TestRouterJSONCallIsNeverUpgraded(t *testing.T) {
	tier := newFrozenTier(t)
	sFrom, sTo, xFrom, xTo := tier.pairs(t)
	for path, body := range map[string]string{
		"/v1/requests": fmt.Sprintf(`{"from":%d,"to":%d,"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":1000}`, sFrom, sTo),
		"/v1/batch": fmt.Sprintf(`{"requests":[{"from":%d,"to":%d,"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":1000}]}`,
			xFrom, xTo),
	} {
		req, err := http.NewRequest(http.MethodPost, tier.web.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Connection", "Upgrade")
		req.Header.Set("Upgrade", server.CallProtocol)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 || resp.Header.Get("Content-Type") != "application/json" || !json.Valid(blob) {
			t.Fatalf("JSON %s offering %s answered %d %q %q, want a JSON answer over HTTP",
				path, server.CallProtocol, resp.StatusCode, resp.Header.Get("Content-Type"), blob)
		}
	}
}

// FuzzJSONFace throws arbitrary bodies at the router's two JSON routes: none
// may panic or answer 5xx, and an answer that is not a success leaves every
// shard as it found it once the router's rollback has run.
func FuzzJSONFace(f *testing.F) {
	tier := newFrozenTier(f)
	sFrom, sTo, xFrom, xTo := tier.pairs(f)
	sub := func(from, to int, rest string) string { return fmt.Sprintf(`{"from":%d,"to":%d,%s}`, from, to, rest) }
	const fits = `"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":1000`
	for _, body := range []string{ // the golden script's bodies
		sub(sFrom, sTo, fits+`,"idempotency_key":"a"`),
		sub(sFrom, sTo, `"volume":"1GB","max_rate":"100MB/s","start_in":"1m","deadline_in":"1h"`),
		sub(xFrom, xTo, fits+`,"idempotency_key":"b"`),
		sub(xFrom, xTo, `"volume_bytes":1e12,"max_rate_bps":1e8,"deadline_s":1000,"idempotency_key":"d"`),
		sub(xFrom, xTo, `"volume_bytes":1e9,"max_rate_bps":1e8,"start_in":"1m","deadline_s":1000,"idempotency_key":"e"`),
		sub(sFrom, sTo, `"max_rate_bps":1e8,"deadline_s":1000`),
		`{"from":0,"to":0,"colour":"red"}`,
	} {
		f.Add(uint8(0), []byte(body))
		f.Add(uint8(1), []byte(`{"requests":[`+body+`,`+sub(xFrom, xTo, fits)+`]}`))
	}
	f.Add(uint8(1), []byte(`{"requests":[]}`))
	routes := []string{"/v1/requests", "/v1/batch"}
	h := tier.rt.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		before := tier.settle(func(b tierBookings) bool { return b.held == 0 })
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s answered %d %s to %q", path, rec.Code, rec.Body.String(), body)
		}
		if rec.Code < 300 {
			return
		}
		if after := tier.settle(func(b tierBookings) bool { return b == before }); after != before {
			t.Fatalf("%s answered %d to %q but left %+v, was %+v", path, rec.Code, body, after, before)
		}
	})
}
