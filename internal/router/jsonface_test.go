package router

import (
	"flag"
	"fmt"
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
