package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"gridbw/internal/faults"
	"gridbw/internal/server"
	"gridbw/internal/wal"
)

var updateJSONFace = flag.Bool("update-json-face", false,
	"rewrite testdata/json_face.golden from this build (run it on the commit whose JSON face is the reference)")

// faceTranscript posts scripted requests at handlers and records every
// answer — status, the headers a client keys on, body — as text.
type faceTranscript struct {
	t   *testing.T
	out strings.Builder
}

func (ft *faceTranscript) do(h http.Handler, name, method, path, body string, header ...string) {
	ft.t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	fmt.Fprintf(&ft.out, "### %s: %s %s\n%d\n", name, method, path, rec.Code)
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := rec.Header().Get(k); v != "" {
			fmt.Fprintf(&ft.out, "%s: %s\n", k, v)
		}
	}
	ft.out.WriteString(rec.Body.String())
	ft.out.WriteString("\n")
}

// TestJSONFaceGolden pins the JSON face of the request plane — what curl
// sees — byte for byte: the frames of wire.go became the wire between
// gridbw processes, and JSON must not have moved in the process. The golden
// file was captured by running this same script on the commit before the
// handlers learned frames (PR 15, with -update-json-face).
func TestJSONFaceGolden(t *testing.T) {
	ft := &faceTranscript{t: t}
	clk := &fakeClock{}
	cfg := uniformConfig(clk)
	cfg.MaxBatch = 8
	s := newTestServer(t, cfg)
	h := s.Handler()

	ok := `{"from":0,"to":1,"volume_bytes":1e11,"deadline_s":400,"max_rate_bps":1e9}`
	ft.do(h, "submit accepted", "POST", "/v1/requests", ok)
	ft.do(h, "submit accepted, human quantities", "POST", "/v1/requests",
		`{"from":1,"to":0,"volume":"10GB","max_rate":"100MB/s","start_in":"60s","deadline_in":"10m"}`)
	ft.do(h, "submit rejected", "POST", "/v1/requests",
		`{"from":1,"to":0,"volume_bytes":1e11,"deadline_s":10,"max_rate_bps":1e9}`)
	ft.do(h, "submit saturated", "POST", "/v1/requests",
		`{"from":0,"to":1,"volume_bytes":4e11,"deadline_s":400,"max_rate_bps":1e9}`)
	keyed := `{"from":1,"to":1,"volume_bytes":1e9,"deadline_s":300,"max_rate_bps":1e8,"idempotency_key":"k1"}`
	ft.do(h, "submit keyed", "POST", "/v1/requests", keyed)
	clk.advance(30 * time.Second)
	ft.do(h, "submit keyed, replayed", "POST", "/v1/requests", keyed)
	ft.do(h, "submit keyed by header", "POST", "/v1/requests",
		`{"from":1,"to":1,"volume_bytes":1e9,"deadline_s":300,"max_rate_bps":1e8}`, "Idempotency-Key", "k1")
	ft.do(h, "submit: key and header disagree", "POST", "/v1/requests", keyed, "Idempotency-Key", "k2")
	ft.do(h, "submit: not JSON", "POST", "/v1/requests", `{"from":`)
	ft.do(h, "submit: unknown field", "POST", "/v1/requests", `{"from":0,"to":1,"colour":"red"}`)
	ft.do(h, "submit: volume twice", "POST", "/v1/requests",
		`{"from":0,"to":1,"volume":"1GB","volume_bytes":1e9,"deadline_s":400,"max_rate_bps":1e9}`)
	ft.do(h, "submit: rate twice", "POST", "/v1/requests",
		`{"from":0,"to":1,"volume":"1GB","max_rate":"1GB/s","max_rate_bps":1e9,"deadline_s":400}`)
	ft.do(h, "submit: start twice", "POST", "/v1/requests",
		`{"from":0,"to":1,"volume":"1GB","max_rate":"1GB/s","start_in":"1s","not_before_s":1,"deadline_s":400}`)
	ft.do(h, "submit: deadline twice", "POST", "/v1/requests",
		`{"from":0,"to":1,"volume":"1GB","max_rate":"1GB/s","deadline_in":"1h","deadline_s":400}`)
	ft.do(h, "submit: unparsable volume", "POST", "/v1/requests",
		`{"from":0,"to":1,"volume":"12parsecs","max_rate":"1GB/s","deadline_s":400}`)
	ft.do(h, "submit: unparsable duration", "POST", "/v1/requests",
		`{"from":0,"to":1,"volume":"1GB","max_rate":"1GB/s","deadline_in":"soon"}`)
	ft.do(h, "submit: no such ingress", "POST", "/v1/requests",
		`{"from":9,"to":1,"volume_bytes":1e9,"deadline_s":400,"max_rate_bps":1e9}`)
	ft.do(h, "submit: no volume", "POST", "/v1/requests", `{"from":0,"to":1,"deadline_s":400,"max_rate_bps":1e9}`)

	ft.do(h, "batch mixed", "POST", "/v1/batch", `{"requests":[`+
		`{"from":0,"to":0,"volume_bytes":1e10,"deadline_s":500,"max_rate_bps":1e9},`+
		`{"from":0,"to":0,"volume_bytes":1e10,"deadline_s":31,"max_rate_bps":1e9},`+
		`{"from":0,"to":0,"volume":"1GB","volume_bytes":1e9,"deadline_s":500,"max_rate_bps":1e9},`+
		`{"from":0,"to":7,"volume_bytes":1e10,"deadline_in":"5m","max_rate":"1GB/s","idempotency_key":"k1"}]}`)
	ft.do(h, "batch replays a key", "POST", "/v1/batch", `{"requests":[`+keyed+`]}`)
	ft.do(h, "batch all malformed", "POST", "/v1/batch", `{"requests":[{"from":0,"to":0,"volume":"x"}]}`)
	ft.do(h, "batch: empty", "POST", "/v1/batch", `{"requests":[]}`)
	ft.do(h, "batch: oversized", "POST", "/v1/batch", `{"requests":[{},{},{},{},{},{},{},{},{}]}`)
	ft.do(h, "batch: not JSON", "POST", "/v1/batch", `[1,2`)
	ft.do(h, "batch: unknown field", "POST", "/v1/batch", `{"requests":[],"mode":"fast"}`)

	in := func(hold string, extra string) string {
		return `{"hold":"` + hold + `","side":"in","point":1,"peer_point":0,"volume_bytes":1e10,"max_rate_bps":1e8,"deadline_s":1000` + extra + `}`
	}
	ft.do(h, "reserve list", "POST", "/v1/reserve", `{"holds":[`+in("h1", "")+`,`+
		`{"hold":"h2","side":"eg","point":1,"peer_point":0,"rel_times":true,"rate_bps":5e7,"sigma_s":0,"tau_s":200,"ttl_s":2},`+
		in("h3", `,"rel_times":true,"not_before_s":10`)+`,`+
		`{"hold":"h4","side":"sideways","point":0,"peer_point":0}]}`)
	ft.do(h, "reserve replayed, refused, malformed", "POST", "/v1/reserve", `{"holds":[`+in("h1", "")+`,`+
		`{"hold":"h5","side":"in","point":1,"peer_point":0,"volume_bytes":1e12,"max_rate_bps":1e9,"deadline_s":100},`+
		`{"side":"in","point":1,"peer_point":0,"volume_bytes":1e10,"max_rate_bps":1e8,"deadline_s":1000},`+
		`{"hold":"h6","side":"eg","point":5,"peer_point":0,"rate_bps":5e7,"sigma_s":40,"tau_s":200}]}`)
	ft.do(h, "reserve: empty", "POST", "/v1/reserve", `{"holds":[]}`)
	ft.do(h, "reserve: oversized", "POST", "/v1/reserve", `{"holds":[{},{},{},{},{},{},{},{},{}]}`)
	ft.do(h, "reserve: single object", "POST", "/v1/reserve", in("h7", ""))
	ft.do(h, "reserve: not JSON", "POST", "/v1/reserve", `{"holds":[{"hold":1}]}`)
	ft.do(h, "confirm list", "POST", "/v1/confirm",
		`{"holds":[{"hold":"h1","epoch":1},{"hold":"nope"},{"hold":""},{"hold":"h5"}]}`)
	ft.do(h, "confirm again", "POST", "/v1/confirm", `{"holds":[{"hold":"h1"}]}`)
	ft.do(h, "confirm: fenced", "POST", "/v1/confirm", `{"holds":[{"hold":"h2","epoch":7}]}`)
	ft.do(h, "confirm: empty", "POST", "/v1/confirm", `{"holds":[]}`)
	ft.do(h, "confirm: unknown field", "POST", "/v1/confirm", `{"holds":[{"hold":"h2","force":true}]}`)
	ft.do(h, "abort list", "POST", "/v1/abort",
		`{"holds":[{"hold":"h2"},{"hold":"h2"},{"hold":"never-reserved"},{"id":8},{"id":999},{},{"id":-1}]}`)
	ft.do(h, "confirm after abort", "POST", "/v1/confirm", `{"holds":[{"hold":"h2"},{"hold":"never-reserved"}]}`)
	ft.do(h, "abort: oversized", "POST", "/v1/abort", `{"holds":[{},{},{},{},{},{},{},{},{}]}`)

	ft.do(h, "lookup", "GET", "/v1/requests/0", "")
	ft.do(h, "lookup: unknown", "GET", "/v1/requests/77", "")
	ft.do(h, "lookup: bad id", "GET", "/v1/requests/x", "")
	ft.do(h, "cancel", "DELETE", "/v1/requests/0", "")
	ft.do(h, "cancel again", "DELETE", "/v1/requests/0", "")
	ft.do(h, "cancel: unknown", "DELETE", "/v1/requests/77", "")

	// Whole-call refusals: a follower, a poisoned WAL, a full in-flight
	// limit, a drained server.
	fcfg := uniformConfig(clk)
	fcfg.Follow = "http://127.0.0.1:0" // never started: read-only is all that matters
	fh := newTestServer(t, fcfg).Handler()
	ft.do(fh, "follower: submit", "POST", "/v1/requests", ok)
	ft.do(fh, "follower: batch", "POST", "/v1/batch", `{"requests":[`+ok+`]}`)
	ft.do(fh, "follower: reserve", "POST", "/v1/reserve", `{"holds":[`+in("h1", "")+`]}`)
	ft.do(fh, "follower: abort", "POST", "/v1/abort", `{"holds":[{"hold":"h1"}]}`)
	ft.do(fh, "follower: cancel", "DELETE", "/v1/requests/0", "")

	dfs := faults.NewDiskFS(nil, faults.DiskConfig{Seed: 1})
	l, _, err := wal.Open(t.TempDir(), wal.Options{FS: dfs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	pcfg := uniformConfig(clk)
	pcfg.WAL = l
	ps := newTestServer(t, pcfg)
	ph := ps.Handler()
	dfs.FailNextFsyncs(1)
	ft.do(ph, "poisoning submit", "POST", "/v1/requests", ok)
	if !ps.WALPoisoned() {
		t.Fatal("WAL not poisoned by the injected fsync failure")
	}
	durable := `{"from":1,"to":0,"volume_bytes":1e9,"deadline_s":400,"max_rate_bps":1e9,"durable":true}`
	ft.do(ph, "poisoned: durable submit", "POST", "/v1/requests", durable)
	ft.do(ph, "poisoned: durable batch item", "POST", "/v1/batch", `{"requests":[`+durable+`]}`)
	ft.do(ph, "poisoned: reserve", "POST", "/v1/reserve", `{"holds":[`+in("h1", "")+`]}`)

	scfg := uniformConfig(nil)
	scfg.WAL = openTestWAL(t)
	scfg.MaxInFlight = 1
	scfg.RetryAfter = 1500 * time.Millisecond
	scfg.SyncTimeout = 2 * time.Second
	ss := newTestServer(t, scfg)
	sh := ss.Handler()
	parked := make(chan struct{})
	go func() {
		// A durable submission with no follower parks on the sync wait,
		// holding the only in-flight slot until the server closes.
		defer close(parked)
		sh.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/requests", strings.NewReader(durable)))
	}()
	waitFor(t, "the parked submission", func() bool { return ss.InFlight() == 1 })
	ft.do(sh, "overloaded: submit", "POST", "/v1/requests", ok)
	ft.do(sh, "overloaded: batch", "POST", "/v1/batch", `{"requests":[`+ok+`]}`)
	ft.do(sh, "overloaded: reserve", "POST", "/v1/reserve", `{"holds":[`+in("h1", "")+`]}`)
	ss.Close()
	<-parked

	s.Close()
	ft.do(h, "closed: submit", "POST", "/v1/requests", ok)
	ft.do(h, "closed: batch", "POST", "/v1/batch", `{"requests":[`+ok+`]}`)
	ft.do(h, "closed: reserve", "POST", "/v1/reserve", `{"holds":[`+in("h9", "")+`]}`)
	ft.do(h, "closed: confirm", "POST", "/v1/confirm", `{"holds":[{"hold":"h1"}]}`)
	ft.do(h, "closed: cancel", "DELETE", "/v1/requests/1", "")

	const golden = "testdata/json_face.golden"
	got := ft.out.String()
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
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("JSON face moved at transcript line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("JSON face moved: transcript has %d lines, golden %d", len(gl), len(wl))
}

// TestJSONBodyIsBounded: a JSON body is read under the framed bound, so a
// submit padded past 8 MiB with whitespace inside the object is refused
// and books nothing. (Before the bound it was decoded and admitted.)
func TestJSONBodyIsBounded(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	before := bookingsOf(s)
	body := `{"from":0,` + strings.Repeat(" ", 9<<20) + `"to":1,"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":400}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/requests", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("a 9 MiB JSON submit answered %d %.200s, want 400", rec.Code, rec.Body.String())
	}
	if after := bookingsOf(s); after != before {
		t.Fatalf("a refused 9 MiB JSON submit left %+v, was %+v", after, before)
	}
}

// TestJSONCallIsNeverUpgraded: a JSON submit or batch that offers the call
// stream is answered in JSON over plain HTTP, never with 101 — only a framed
// call is taken over.
func TestJSONCallIsNeverUpgraded(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const sub = `{"from":0,"to":1,"volume_bytes":1e9,"max_rate_bps":1e8,"deadline_s":400}`
	for path, body := range map[string]string{"/v1/requests": sub, "/v1/batch": `{"requests":[` + sub + `]}`} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
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

// jsonFaceSeeds are bodies of the golden script above, one per route kind.
var jsonFaceSeeds = []struct {
	path, body string
}{
	{"/v1/requests", `{"from":0,"to":1,"volume_bytes":1e11,"deadline_s":400,"max_rate_bps":1e9}`},
	{"/v1/requests", `{"from":1,"to":0,"volume":"10GB","max_rate":"100MB/s","start_in":"60s","deadline_in":"10m"}`},
	{"/v1/requests", `{"from":1,"to":1,"volume_bytes":1e9,"deadline_s":300,"max_rate_bps":1e8,"idempotency_key":"k1"}`},
	{"/v1/requests", `{"from":0,"to":1,"volume":"1GB","volume_bytes":1e9,"deadline_s":400,"max_rate_bps":1e9}`},
	{"/v1/requests", `{"from":0,"to":1,"colour":"red"}`},
	{"/v1/requests", `{"from":1,"to":0,"volume_bytes":1e9,"deadline_s":400,"max_rate_bps":1e9,"durable":true}`},
	{"/v1/batch", `{"requests":[{"from":0,"to":0,"volume_bytes":1e10,"deadline_s":500,"max_rate_bps":1e9},` +
		`{"from":0,"to":0,"volume":"1GB","volume_bytes":1e9,"deadline_s":500,"max_rate_bps":1e9},` +
		`{"from":0,"to":7,"volume_bytes":1e10,"deadline_in":"5m","max_rate":"1GB/s","idempotency_key":"k1"}]}`},
	{"/v1/batch", `{"requests":[{"from":0,"to":0,"volume":"x"}]}`},
	{"/v1/batch", `{"requests":[]}`},
	{"/v1/reserve", `{"holds":[{"hold":"h1","side":"in","point":1,"peer_point":0,"volume_bytes":1e10,"max_rate_bps":1e8,"deadline_s":1000},` +
		`{"hold":"h2","side":"eg","point":1,"peer_point":0,"rel_times":true,"rate_bps":5e7,"sigma_s":0,"tau_s":200,"ttl_s":2},` +
		`{"hold":"h4","side":"sideways","point":0,"peer_point":0}]}`},
	{"/v1/reserve", `{"holds":[{"hold":1}]}`},
	{"/v1/confirm", `{"holds":[{"hold":"h1","epoch":1},{"hold":"nope"},{"hold":""},{"hold":"h5"}]}`},
	{"/v1/confirm", `{"holds":[{"hold":"h2","epoch":7}]}`},
	{"/v1/abort", `{"holds":[{"hold":"h2"},{"hold":"never-reserved"},{"id":8},{"id":999},{},{"id":-1}]}`},
}

// FuzzJSONFace throws arbitrary bodies at the daemon's five JSON routes:
// none may panic or answer 5xx, and an answer that is not a success books
// nothing.
func FuzzJSONFace(f *testing.F) {
	routes := []string{"/v1/requests", "/v1/batch", "/v1/reserve", "/v1/confirm", "/v1/abort"}
	for _, seed := range jsonFaceSeeds {
		f.Add(uint8(slices.Index(routes, seed.path)), []byte(seed.body))
	}
	cfg := uniformConfig(&fakeClock{})
	cfg.MaxBatch = 8
	s := newTestServer(f, cfg)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		before := bookingsOf(s)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s answered %d %s to %q", path, rec.Code, rec.Body.String(), body)
		}
		if after := bookingsOf(s); rec.Code >= 300 && after != before {
			t.Fatalf("%s answered %d to %q but left %+v, was %+v", path, rec.Code, body, after, before)
		}
	})
}
