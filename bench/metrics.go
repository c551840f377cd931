package main

// metricDef names one metric the harness reports. BENCHMARK.json carries
// the same lists (TestBenchmarkJSONMatches keeps them equal); bound is the
// share of the parent's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the control plane sees, measured untraced.
// The timings among them are calibrated against the yardstick (yard.go):
// they say what the code costs, not how fast the box ran that minute. A
// bound holds for all four workloads, so the noisiest one sets it. On the
// reference box the calibrated timings spread by 1 to 8% over ten seeds
// (bench/baseline.json), but the box the benchmark is checked on is noisier
// — it spread the raw timings of this benchmark's first version by 25 to
// 37% — so everything timed keeps the contract's cap of 0.25 for its bound.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"admit_throughput_per_s", "1/s", higher, 0.25},
	{"submit_p50_us", "us", lower, 0.25},
	{"batch_p50_us", "us", lower, 0.25},
	{"accept_rate", "ratio", higher, 0.03},
	{"resource_util", "ratio", higher, 0.05},
	{"allocs_per_admit", "count", lower, 0.08},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer is what the traced run reports, one group per module.
var perLayer = []metricDef{
	// Demoted from the end-to-end list (bench/README.md says why):
	// failed_share is 0 on a healthy run, and a bound relative to 0 means
	// nothing; the p99s, and the cancel and lookup medians of the low-rate
	// workloads, do not repeat within any bound worth enforcing on a
	// 2-core sandbox; cpu_us_per_admit cannot be split between the daemon
	// and the yardstick, so it cannot be calibrated. They come, raw, from
	// the traced run's open and closed loop.
	{Name: "failed_share", Unit: "ratio", Better: lower},
	{Name: "submit_p99_us", Unit: "us", Better: lower},
	{Name: "batch_p99_us", Unit: "us", Better: lower},
	{Name: "cancel_p50_us", Unit: "us", Better: lower},
	{Name: "lookup_p50_us", Unit: "us", Better: lower},
	{Name: "cpu_us_per_admit", Unit: "us", Better: lower},

	{Name: "client.submit_self_us", Unit: "us", Better: lower},
	{Name: "client.attempts_per_op", Unit: "count", Better: lower},
	{Name: "client.allocs_per_submit", Unit: "count", Better: lower},
	{Name: "transport.roundtrip_self_us", Unit: "us", Better: lower},
	{Name: "transport.conns_opened", Unit: "count", Better: lower},
	{Name: "http.submit_handler_us", Unit: "us", Better: lower},
	{Name: "http.batch_handler_us", Unit: "us", Better: lower},
	{Name: "http.cancel_handler_us", Unit: "us", Better: lower},
	{Name: "http.lookup_handler_us", Unit: "us", Better: lower},
	{Name: "http.handler_self_us", Unit: "us", Better: lower},
	{Name: "http.shed_429", Unit: "count", Better: lower},
	{Name: "codec.json_submit_us", Unit: "us", Better: lower},
	{Name: "codec.json_batch_us_per_item", Unit: "us", Better: lower},
	{Name: "codec.binary_decode_us_per_item", Unit: "us", Better: lower},
	{Name: "codec.binary_encode_us_per_item", Unit: "us", Better: lower},
	{Name: "core.submit_us", Unit: "us", Better: lower},
	{Name: "core.submit_wal_us", Unit: "us", Better: lower},
	{Name: "core.batch_us_per_item", Unit: "us", Better: lower},
	{Name: "core.cancel_us", Unit: "us", Better: lower},
	{Name: "core.lookup_us", Unit: "us", Better: lower},
	{Name: "core.idem_hit_us", Unit: "us", Better: lower},
	{Name: "core.allocs_per_submit", Unit: "count", Better: lower},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: higher},
	{Name: "core.same_pair_speedup", Unit: "ratio", Better: higher},
	{Name: "alloc.breakpoints_per_profile", Unit: "count", Better: lower},
	{Name: "alloc.max_used_ns", Unit: "ns", Better: lower},
	{Name: "alloc.max_used_far_ns", Unit: "ns", Better: lower},
	{Name: "alloc.fits_ns", Unit: "ns", Better: lower},
	{Name: "alloc.reserve_release_ns", Unit: "ns", Better: lower},
	{Name: "alloc.earliest_fit_ns", Unit: "ns", Better: lower},
	{Name: "alloc.lock_contended_share", Unit: "ratio", Better: lower},
	{Name: "policy.assign_ns", Unit: "ns", Better: lower},
	{Name: "wal.append_us", Unit: "us", Better: lower},
	{Name: "wal.fsync_us", Unit: "us", Better: lower},
	{Name: "wal.fsyncs_per_admit", Unit: "count", Better: lower},
	{Name: "wal.bytes_per_admit", Unit: "B", Better: lower},
	{Name: "wal.records_per_admit", Unit: "count", Better: lower},
	{Name: "wal.append_direct_us", Unit: "us", Better: lower},
	{Name: "wal.append_fsync_us", Unit: "us", Better: lower},
	{Name: "wal.read_from_us_per_record", Unit: "us", Better: lower},
	{Name: "wal.recover_s", Unit: "s", Better: lower},
	{Name: "repl.ack_wait_us", Unit: "us", Better: lower},
	{Name: "repl.pulls_per_admit", Unit: "count", Better: lower},
	{Name: "repl.pull_bytes_per_admit", Unit: "B", Better: lower},
	{Name: "repl.follower_lag_records_p99", Unit: "count", Better: lower},
	{Name: "repl.follower_fsync_us", Unit: "us", Better: lower},
	{Name: "repl.sync_degraded", Unit: "count", Better: lower},
	{Name: "router.handler_self_us", Unit: "us", Better: lower},
	{Name: "router.direct_us", Unit: "us", Better: lower},
	{Name: "router.single_same_us", Unit: "us", Better: lower},
	{Name: "router.single_cross_us", Unit: "us", Better: lower},
	{Name: "router.tax_same", Unit: "ratio", Better: lower},
	{Name: "router.tax_cross", Unit: "ratio", Better: lower},
	{Name: "router.shard_trips_per_submit_same", Unit: "count", Better: lower},
	{Name: "router.shard_trips_per_submit_cross", Unit: "count", Better: lower},
	{Name: "router.shard_trips_per_batch_item", Unit: "count", Better: lower},
	{Name: "router.cross_share", Unit: "ratio", Better: lower},
	{Name: "router.ring_owner_ns", Unit: "ns", Better: lower},
	{Name: "router.hold_aborts", Unit: "count", Better: lower},
	{Name: "holds.reserve_us", Unit: "us", Better: lower},
	{Name: "holds.confirm_us", Unit: "us", Better: lower},
	{Name: "sched.greedy_ns_per_request", Unit: "ns", Better: lower},
	{Name: "sched.accept_rate_gap", Unit: "ratio", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: lower},
	{Name: "runtime.heap_inuse_mb", Unit: "MB", Better: lower},
	{Name: "loadgen.offered_per_s", Unit: "1/s", Better: higher},
	{Name: "loadgen.achieved_per_s", Unit: "1/s", Better: higher},
	{Name: "loadgen.lateness_p99_us", Unit: "us", Better: lower},
	{Name: "loadgen.backlog_max", Unit: "count", Better: lower},
	{Name: "budget.residual_share", Unit: "ratio", Better: lower},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
	{Name: "trace.submit_median_us", Unit: "us", Better: lower},
	{Name: "trace.batch_median_us", Unit: "us", Better: lower},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 25

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	return m
}
