package metrics_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"gridbw/internal/metrics"
	"gridbw/internal/metrics/promtest"
)

// TestExpositionSpellsTheFormat: one page through every form the writer has,
// compared line for line, then read back by the strict parser.
func TestExpositionSpellsTheFormat(t *testing.T) {
	h := metrics.NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 40 * time.Millisecond} {
		h.Record(d)
	}
	var sb strings.Builder
	e := metrics.NewExposition(&sb)
	e.Counter("t_events_total", `A \ and a`+"\nnewline.").Set(uint64(math.MaxUint64))
	e.Gauge("t_level", "Levels.")
	e.Set(int64(-3), "kind", "int")
	e.Set(2.5, "kind", "float")
	e.Set(1e9, "kind", "big")
	e.Set(true, "kind", "bool")
	e.Gauge("t_hostile", "Label values are outside input.")
	e.Set(0, "id", "tab\there", "path", `C:\dir "quoted"`+"\nnext")
	e.Set(0, "id", "bad\xffutf8\x01")
	e.Summary("t_latency_seconds", "Latency.").Latency(h, "shard", "s0")
	e.Histogram("t_size_seconds", "Buckets.").Buckets(h, []time.Duration{2 * time.Millisecond, time.Second})

	want := `# HELP t_events_total A \\ and a\nnewline.
# TYPE t_events_total counter
t_events_total 18446744073709551615
# HELP t_level Levels.
# TYPE t_level gauge
t_level{kind="int"} -3
t_level{kind="float"} 2.5
t_level{kind="big"} 1e+09
t_level{kind="bool"} 1
# HELP t_hostile Label values are outside input.
# TYPE t_hostile gauge
t_hostile{id="tab	here",path="C:\\dir \"quoted\"\nnext"} 0
t_hostile{id="bad` + "\uFFFD" + `utf8` + "\x01" + `"} 0
# HELP t_latency_seconds Latency.
# TYPE t_latency_seconds summary
t_latency_seconds{shard="s0",quantile="0.5"} 0.003
t_latency_seconds{shard="s0",quantile="0.9"} 0.04
t_latency_seconds{shard="s0",quantile="0.95"} 0.04
t_latency_seconds{shard="s0",quantile="0.99"} 0.04
t_latency_seconds{shard="s0",quantile="0.999"} 0.04
t_latency_seconds_sum{shard="s0"} 0.044
t_latency_seconds_count{shard="s0"} 3
# HELP t_size_seconds Buckets.
# TYPE t_size_seconds histogram
t_size_seconds_bucket{le="0.002"} 1
t_size_seconds_bucket{le="1"} 3
t_size_seconds_bucket{le="+Inf"} 3
t_size_seconds_sum 0.044
t_size_seconds_count 3
`
	got := sb.String()
	// The histogram's buckets are ≲6% wide: compare quantiles by parse, the
	// rest by text.
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Fatalf("page has %d lines, want %d:\n%s", len(gl), len(wl), got)
	}
	for i := range wl {
		if strings.Contains(wl[i], "quantile=") {
			gl[i], wl[i] = gl[i][:strings.LastIndex(gl[i], " ")], wl[i][:strings.LastIndex(wl[i], " ")]
		}
		if gl[i] != wl[i] {
			t.Errorf("line %d = %q, want %q", i+1, gl[i], wl[i])
		}
	}
	page, err := promtest.Parse(got)
	if err != nil {
		t.Fatalf("the strict parser refuses the writer's page: %v\n%s", err, got)
	}
	if len(page.Families) != 5 || len(page.Series) != 19 {
		t.Errorf("parsed %d families and %d series, want 5 and 19", len(page.Families), len(page.Series))
	}
}

// TestStrictParserRefuses: each page breaks one rule of the format.
func TestStrictParserRefuses(t *testing.T) {
	head := "# HELP a_total A.\n# TYPE a_total counter\n"
	for name, page := range map[string]string{
		"no TYPE":             "# HELP a_total A.\na_total 1\n",
		"no HELP":             "# TYPE a_total counter\na_total 1\n",
		"TYPE twice":          head + "# TYPE a_total counter\na_total 1\n",
		"interleaved":         head + "# HELP b B.\n# TYPE b gauge\na_total 1\nb 1\n",
		"split family":        head + "a_total{x=\"1\"} 1\n# HELP b B.\n# TYPE b gauge\nb 1\na_total{x=\"2\"} 1\n",
		"bad metric name":     "# HELP 9a A.\n# TYPE 9a gauge\n9a 1\n",
		"bad label name":      head + "a_total{9x=\"1\"} 1\n",
		"Go escape":           head + "a_total{x=\"n1\\ttab\"} 1\n",
		"hex escape":          head + "a_total{x=\"x\\x01y\"} 1\n",
		"series twice":        head + "a_total{x=\"1\",y=\"2\"} 1\na_total{y=\"2\",x=\"1\"} 1\n",
		"not a number":        head + "a_total one\n",
		"untyped neighbour":   "# HELP g G.\n# TYPE g gauge\ng 1\ng_max 2\n",
		"summary without sum": "# HELP s S.\n# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_count 1\n",
		"buckets fall":        "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"no +Inf":             "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
		"no final newline":    head + "a_total 1",
	} {
		if _, err := promtest.Parse(page); err == nil {
			t.Errorf("%s: the strict parser accepts\n%s", name, page)
		}
	}
}

// TestNameLint: counters and only counters end in _total, and a unit in a
// name is a base unit.
func TestNameLint(t *testing.T) {
	bad := []promtest.Family{
		{Name: "x_requests", Type: "counter"},
		{Name: "x_level_total", Type: "gauge"},
		{Name: "x_latency_ms", Type: "gauge"},
		{Name: "x_wait_us", Type: "summary"},
		{Name: "x_rate_bps", Type: "gauge"},
	}
	if errs := promtest.Lint(bad); len(errs) != len(bad) {
		t.Errorf("lint found %d of %d bad names: %v", len(errs), len(bad), errs)
	}
	good := []promtest.Family{
		{Name: "x_requests_total", Type: "counter"},
		{Name: "x_latency_seconds", Type: "summary"},
		{Name: "x_lag_bytes", Type: "gauge"},
		{Name: "x_max_vus", Type: "gauge"},
		{Name: "gridbwd_point_used_bps", Type: "gauge"},
	}
	if errs := promtest.Lint(good); len(errs) != 0 {
		t.Errorf("lint refuses good names: %v", errs)
	}
}
