package loadgen

import (
	"slices"
	"strings"
	"testing"
	"time"

	"gridbw/internal/metrics/promtest"
)

// pageFixture is a Recorder with two phases, mixed outcomes and a
// cross-shard decision in one of them.
func pageFixture() *Recorder {
	rec := newRecorder([]Phase{{Name: "ramp"}, {Name: "steady"}}, 16)
	for phase, outcomes := range [][]Outcome{
		{OutAdmitted, OutRejected, OutDropped},
		{OutAdmitted, OutAdmitted, OutDeduped, OutShed, OutTimeout, OutCancelled},
	} {
		for i, o := range outcomes {
			rec.arrival(phase)
			rec.count(phase, o)
			if o != OutDropped {
				rec.latency(phase, time.Duration(i+1)*700*time.Microsecond)
			}
		}
	}
	rec.crossShard(1, 4*time.Millisecond)
	rec.inflight.Store(3)
	return rec
}

// TestMetricsPage parses the harness's text page instead of grepping it.
func TestMetricsPage(t *testing.T) {
	var sb strings.Builder
	pageFixture().WritePrometheus(&sb)
	page := promtest.Check(t, sb.String(), "gridbwload")
	for _, want := range []string{
		"gridbwload_max_vus",
		`gridbwload_cross_shard_total{phase="steady"}`,
		`gridbwload_latency_seconds{phase="total",route="cross_shard",quantile="0.5"}`,
		`gridbwload_latency_bucket_seconds_bucket{le="0.0025"}`,
	} {
		if !slices.Contains(page.Series, want) {
			t.Errorf("the page lacks %s", want)
		}
	}
	if slices.Contains(page.Series, `gridbwload_cross_shard_total{phase="ramp"}`) {
		t.Error("a phase without a routed decision shows a cross-shard series")
	}
}
