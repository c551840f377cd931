package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gridbw/internal/metrics"
	"gridbw/internal/metrics/promtest"
	"gridbw/internal/server"
	"gridbw/internal/wire"
)

// scrape fetches the daemon's text page the way a scraper does.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metricsz", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// pull presents id as a follower's pull at the primary's WAL frontier, which
// is what puts a row in the ack table, and reports the status answered.
func pull(t *testing.T, ts *httptest.Server, s *server.Server, id string) int {
	t.Helper()
	end := s.ReplicationStatus().WALEnd
	q := url.Values{"id": {id}, "seg": {strconv.FormatUint(end.Seg, 10)}, "off": {strconv.FormatInt(end.Off, 10)}, "max": {"1"}}
	resp, err := ts.Client().Get(ts.URL + "/v1/replication/pull?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// metricsFixture is a daemon with every conditional family of its page lit:
// WAL-backed, with an accept, a reject, a cancel, a held hold, a follower ack
// row, a watchdog state and a timed admission.
func metricsFixture(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg := uniformConfig(nil)
	cfg.WAL = openTestWAL(t)
	s := newTestServer(t, cfg)
	s.SetWatchdogState(func() string { return "suspect" })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	kept, err := s.Submit(server.Submission{From: 0, To: 1, Volume: 1e9, Deadline: 3600, MaxRate: 50e6})
	if err != nil || !kept.Accepted {
		t.Fatalf("accept = %+v, %v", kept, err)
	}
	if r, err := s.Submit(server.Submission{From: 0, To: 1, Volume: 1e12, Deadline: 10, MaxRate: 1e9}); err != nil || r.Accepted {
		t.Fatalf("reject = %+v, %v", r, err)
	}
	gone, err := s.Submit(server.Submission{From: 1, To: 0, Volume: 1e9, Deadline: 3600, MaxRate: 50e6})
	if err != nil || !gone.Accepted {
		t.Fatalf("second accept = %+v, %v", gone, err)
	}
	if _, err := s.Cancel(gone.ID); err != nil {
		t.Fatal(err)
	}
	held, err := s.HoldReserve([]wire.HoldReserveJSON{{
		Hold: "h1", Side: "in", Point: 1, PeerPoint: 1, VolumeBytes: 1e9, MaxRateBps: 1e8, DeadlineS: 1000,
	}})
	if err != nil || !held[0].Held {
		t.Fatalf("hold = %+v, %v", held, err)
	}
	if code := pull(t, ts, s, "f1"); code != http.StatusOK {
		t.Fatalf("follower pull = HTTP %d", code)
	}
	return s, ts
}

// TestMetricsPage parses the daemon's text page instead of grepping it.
func TestMetricsPage(t *testing.T) {
	_, ts := metricsFixture(t)
	page := promtest.Check(t, scrape(t, ts), "gridbwd")
	for _, want := range []string{
		`gridbwd_follower_lag_bytes{follower="f1"}`,
		`gridbwd_watchdog_state{state="suspect"}`,
		`gridbwd_admit_latency_seconds{quantile="0.999"}`,
		"gridbwd_wal_records",
		"gridbwd_ledger_breakpoints",
	} {
		if !slices.Contains(page.Series, want) {
			t.Errorf("the fixture does not light %s", want)
		}
	}
}

// TestHostileFollowerIDKeepsThePageParsable: the follower label is the id
// query parameter of an unauthenticated endpoint. Ids a scraper could choke
// on are refused before they reach the ack table; the rest are escaped by the
// format's rule, and the page still parses.
func TestHostileFollowerIDKeepsThePageParsable(t *testing.T) {
	s, ts := metricsFixture(t)
	for id, want := range map[string]int{
		"n1\ttab":                http.StatusBadRequest,
		"two\nlines":             http.StatusBadRequest,
		"x\x01y":                 http.StatusBadRequest,
		"bad\xffutf8":            http.StatusBadRequest,
		strings.Repeat("a", 129): http.StatusBadRequest,
		`say "hi"`:               http.StatusOK,
		`back\slash`:             http.StatusOK,
		"nœud-é":                 http.StatusOK,
		strings.Repeat("a", 128): http.StatusOK,
		"http://127.0.0.1:18192": http.StatusOK,
		"trailing-backslash-\\":  http.StatusOK,
		`{follower="x"} 1` + "#": http.StatusOK,
	} {
		if got := pull(t, ts, s, id); got != want {
			t.Errorf("pull with id %q = HTTP %d, want %d", id, got, want)
		}
	}
	text := scrape(t, ts)
	page, err := promtest.Parse(text)
	if err != nil {
		t.Fatalf("page after hostile pulls: %v\n%s", err, text)
	}
	for _, want := range []string{
		`gridbwd_follower_lag_bytes{follower="say \"hi\""}`,
		`gridbwd_follower_lag_bytes{follower="back\\slash"}`,
		`gridbwd_follower_lag_bytes{follower="nœud-é"}`,
	} {
		if !slices.Contains(page.Series, want) {
			t.Errorf("page lacks %s", want)
		}
	}
	if rows := len(s.FollowerAcks()); rows != 8 {
		t.Errorf("ack table holds %d rows, want the fixture's one and the 7 accepted ids", rows)
	}
}
