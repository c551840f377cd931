package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"gridbw/internal/metrics"
	"gridbw/internal/metrics/promtest"
	"gridbw/internal/server"
)

// TestMetricszContentNegotiation pins that /v1/metricsz negotiates nothing:
// it answers the one Prometheus text page, with the same values, whatever
// Accept says, and every field its former JSON shape carried can still be
// read on /v1/status, /v1/replication/status or that page.
func TestMetricszContentNegotiation(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	s.SetWatchdogState(func() string { return "follower" })
	if _, err := s.Submit(server.Submission{From: 0, To: 1, Volume: 1e9, Deadline: 3600, MaxRate: 50e6}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, accept := range []string{"", "application/json", "text/plain", "*/*"} {
		text := getMetricsz(t, ts, accept)
		lines := strings.Split(text, "\n")
		for _, want := range []string{
			"gridbwd_replication_is_follower 0",
			"gridbwd_replication_epoch 1",
			"gridbwd_reservations_active 1",
			"gridbwd_reseeds_total 0",
			`gridbwd_watchdog_state{state="follower"} 1`,
			`gridbwd_watchdog_state{state="primary"} 0`,
			"gridbwd_admit_latency_seconds_count 1",
		} {
			if !slices.Contains(lines, want) {
				t.Errorf("Accept %q: page has no line %q:\n%s", accept, want, text)
			}
		}
		if !strings.Contains(text, "\n"+`gridbwd_admit_latency_seconds{quantile="0.99"} `) {
			t.Errorf("Accept %q: page has no admit-latency p99:\n%s", accept, text)
		}
	}

	_, ts = metricsFixture(t)
	page := promtest.Check(t, getMetricsz(t, ts, ""), "gridbwd")
	status := jsonKeys(t, ts, "/v1/status")
	repl := jsonKeys(t, ts, "/v1/replication/status")
	for _, f := range []struct{ former, surface, name string }{
		{"now_s", "status", "now_s"},
		{"policy", "status", "policy"},
		{"role", "status", "role"},
		{"epoch", "status", "epoch"},
		{"booked", "status", "booked"},
		{"active", "status", "active"},
		{"submitted", "status", "submitted"},
		{"accepted", "status", "accepted"},
		{"rejected", "status", "rejected"},
		{"cancelled", "status", "cancelled"},
		{"expired", "status", "expired"},
		{"shed", "status", "shed"},
		{"idempotent_hits", "status", "idempotent_hits"},
		{"panics", "status", "panics"},
		{"batches", "status", "batches"},
		{"batch_requests", "status", "batch_requests"},
		{"accept_rate", "status", "accept_rate"},
		{"mean_granted_rate_bps", "status", "mean_granted_rate_bps"},
		{"log_append_failures", "status", "log_append_failures"},
		{"durability_degraded", "status", "durability_degraded"},
		{"points", "status", "points"},
		{"replication_lag_bytes", "replication", "lag_bytes"},
		{"applied_records", "replication", "applied_records"},
		{"followers", "replication", "followers"},
		{"reseeds", "metricsz", "gridbwd_reseeds_total"},
		{"sync_degraded", "metricsz", "gridbwd_sync_degraded_total"},
		{"admit_latency", "metricsz", `gridbwd_admit_latency_seconds{quantile="0.99"}`},
		{"watchdog_state", "metricsz", `gridbwd_watchdog_state{state="suspect"}`},
	} {
		var found bool
		switch f.surface {
		case "status":
			found = status[f.name]
		case "replication":
			found = repl[f.name]
		case "metricsz":
			found = slices.Contains(page.Series, f.name)
		}
		if !found {
			t.Errorf("former metricsz field %q: no %s on the %s surface", f.former, f.name, f.surface)
		}
	}
}

// getMetricsz GETs /v1/metricsz with the given Accept header ("" sends
// none), checks the answer is the text exposition and returns its body.
func getMetricsz(t *testing.T, ts *httptest.Server, accept string) string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metricsz", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("Accept %q: Content-Type = %q, want %q", accept, ct, metrics.ContentType)
	}
	return string(blob)
}

// jsonKeys reports the top-level keys of the JSON object a GET of path
// answers.
func jsonKeys(t *testing.T, ts *httptest.Server, path string) map[string]bool {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var obj map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	keys := make(map[string]bool, len(obj))
	for k := range obj {
		keys[k] = true
	}
	return keys
}
