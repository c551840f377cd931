package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/wire"
)

// TestMetricszContentNegotiation pins the dual shape of /v1/metricsz:
// JSON by default (machine consumers), Prometheus text exposition when
// the scraper asks with Accept: text/plain.
func TestMetricszContentNegotiation(t *testing.T) {
	s := newTestServer(t, uniformConfig(nil))
	s.SetWatchdogState(func() string { return "follower" })
	if _, err := s.Submit(server.Submission{From: 0, To: 1, Volume: 1e9, Deadline: 3600, MaxRate: 50e6}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Default: JSON.
	resp, err := http.Get(ts.URL + "/v1/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default content type = %q, want JSON", ct)
	}
	var m wire.MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Role != "primary" || m.Epoch != 1 || m.Active != 1 {
		t.Fatalf("metrics JSON = %+v, want primary epoch 1 with one active", m)
	}
	if m.WatchdogState != "follower" {
		t.Fatalf("watchdog_state = %q, want the installed hook's answer", m.WatchdogState)
	}
	if m.AdmitLatency.Count != 1 || m.AdmitLatency.MaxMs <= 0 {
		t.Fatalf("admit_latency = %+v, want one timed admission", m.AdmitLatency)
	}

	// Accept: text/plain switches to Prometheus exposition.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metricsz", nil)
	req.Header.Set("Accept", "text/plain")
	tresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	blob, _ := io.ReadAll(tresp.Body)
	page := string(blob)
	for _, want := range []string{
		"gridbwd_replication_is_follower 0",
		"gridbwd_replication_epoch 1",
		"gridbwd_reseeds_total 0",
		`gridbwd_watchdog_state{state="follower"} 1`,
		`gridbwd_watchdog_state{state="primary"} 0`,
		`gridbwd_admit_latency_seconds{quantile="0.99"}`,
		"gridbwd_admit_latency_seconds_count 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("text exposition missing %q:\n%s", want, page)
		}
	}

	// The typed client helper reads the JSON shape.
	c := client.NewWithOptions(ts.URL, nil, client.Options{MaxRetries: -1})
	got, err := c.Metrics(context.Background())
	if err != nil || got.Active != 1 || got.WatchdogState != "follower" {
		t.Fatalf("client.Metrics = %+v, %v", got, err)
	}
}
