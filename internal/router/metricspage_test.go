package router

import (
	"net/http"
	"slices"
	"testing"

	"gridbw/internal/metrics"
	"gridbw/internal/metrics/promtest"
	"gridbw/internal/server"
	"gridbw/internal/units"
)

// TestMetricsPage parses the router's text page instead of grepping it: two
// shards, after a same-shard submit, a confirmed and a rejected cross-shard
// pair and a batch.
func TestMetricsPage(t *testing.T) {
	tier := newTier(t, 2, units.GBps)
	sameFrom, sameTo, crossFrom, crossTo := tier.pairs(t)
	if res, code := tier.submit(t, submitReq(sameFrom, sameTo)); code != http.StatusCreated || !res.Accepted {
		t.Fatalf("same-shard submit = %d %+v", code, res)
	}
	if res, code := tier.submit(t, submitReq(crossFrom, crossTo)); code != http.StatusCreated || res.Routed != server.RoutedCrossShard {
		t.Fatalf("cross-shard submit = %d %+v", code, res)
	}
	tooFast := submitReq(crossFrom, crossTo)
	tooFast.VolumeBytes, tooFast.MaxRateBps, tooFast.DeadlineS = 1e12, 1e9, 10
	if res, code := tier.submit(t, tooFast); code != http.StatusOK || res.Accepted {
		t.Fatalf("infeasible cross-shard submit = %d %+v", code, res)
	}
	tier.batch(t, tier.web.URL, []server.SubmitRequest{submitReq(sameFrom, sameTo), submitReq(crossFrom, crossTo)})

	resp, err := http.Get(tier.web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	page := promtest.Check(t, metricsPage(t, tier.web.URL), "gridbwrouter")
	for _, want := range []string{
		`gridbwrouter_shard_latency_seconds{shard="s1",quantile="0.95"}`,
		`gridbwrouter_cross_shard_latency_seconds{quantile="0.999"}`,
		`gridbwrouter_hold_items_total{shard="s0",op="abort"}`,
	} {
		if !slices.Contains(page.Series, want) {
			t.Errorf("the page lacks %s", want)
		}
	}
}
