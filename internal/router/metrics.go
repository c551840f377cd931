package router

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"gridbw/internal/metrics"
)

// The hold protocol's calls, indexing shardMetrics' hold counters.
const (
	opReserve = iota
	opConfirm
	opAbort
)

var holdOpNames = [...]string{opReserve: "reserve", opConfirm: "confirm", opAbort: "abort"}

// shardMetrics counts one shard's proxied calls: volume, failures, and a
// latency histogram over every round trip the router made to it.
type shardMetrics struct {
	name   string
	calls  atomic.Uint64
	errors atomic.Uint64
	lat    *metrics.Histogram
	// List-shaped hold calls and the holds they carried, by op: items over
	// calls is the cross-shard batching factor.
	holdCalls [len(holdOpNames)]atomic.Uint64
	holdItems [len(holdOpNames)]atomic.Uint64
}

func (sm *shardMetrics) observe(d time.Duration, err error) {
	sm.calls.Add(1)
	if err != nil {
		sm.errors.Add(1)
	}
	sm.lat.Record(d)
}

func (sm *shardMetrics) observeHold(op, items int, d time.Duration, err error) {
	sm.holdCalls[op].Add(1)
	sm.holdItems[op].Add(uint64(items))
	sm.observe(d, err)
}

// routerMetrics is the router's whole observability surface, rendered as
// Prometheus text on GET /metrics. All fields are atomic — request
// goroutines record while the scraper reads.
type routerMetrics struct {
	shards []*shardMetrics
	// Cross-shard two-phase outcomes: total attempts, committed pairs,
	// domain rejections, shard-side failures; crossLat spans the whole
	// protocol run (both RESERVEs and CONFIRMs).
	crossTotal     atomic.Uint64
	crossConfirmed atomic.Uint64
	crossRejected  atomic.Uint64
	crossFailed    atomic.Uint64
	crossLat       *metrics.Histogram
	// Batch scatter shape: calls, and how many shard groups plus
	// cross-shard singles each one fanned out to.
	batches     atomic.Uint64
	batchFanout atomic.Uint64
}

func newRouterMetrics(names []string) *routerMetrics {
	m := &routerMetrics{crossLat: metrics.NewHistogram()}
	for _, name := range names {
		m.shards = append(m.shards, &shardMetrics{name: name, lat: metrics.NewHistogram()})
	}
	return m
}

func (m *routerMetrics) observeCross(d time.Duration, err error, confirmed bool) {
	m.crossTotal.Add(1)
	m.crossLat.Record(d)
	switch {
	case err != nil:
		m.crossFailed.Add(1)
	case confirmed:
		m.crossConfirmed.Add(1)
	default:
		m.crossRejected.Add(1)
	}
}

func (m *routerMetrics) observeBatch(groups, cross int) {
	m.batches.Add(1)
	m.batchFanout.Add(uint64(groups + cross))
}

func (m *routerMetrics) write(w io.Writer) {
	fmt.Fprintf(w, "# TYPE gridbwrouter_shard_calls_total counter\n")
	fmt.Fprintf(w, "# TYPE gridbwrouter_shard_errors_total counter\n")
	for _, sm := range m.shards {
		fmt.Fprintf(w, "gridbwrouter_shard_calls_total{shard=%q} %d\n", sm.name, sm.calls.Load())
		fmt.Fprintf(w, "gridbwrouter_shard_errors_total{shard=%q} %d\n", sm.name, sm.errors.Load())
	}
	fmt.Fprintf(w, "# TYPE gridbwrouter_shard_latency_seconds summary\n")
	for _, sm := range m.shards {
		writeLatency(w, "gridbwrouter_shard_latency_seconds", fmt.Sprintf("shard=%q", sm.name), sm.lat)
	}
	fmt.Fprintf(w, "# TYPE gridbwrouter_hold_calls_total counter\n")
	fmt.Fprintf(w, "# TYPE gridbwrouter_hold_items_total counter\n")
	for _, sm := range m.shards {
		for op, name := range holdOpNames {
			fmt.Fprintf(w, "gridbwrouter_hold_calls_total{shard=%q,op=%q} %d\n", sm.name, name, sm.holdCalls[op].Load())
			fmt.Fprintf(w, "gridbwrouter_hold_items_total{shard=%q,op=%q} %d\n", sm.name, name, sm.holdItems[op].Load())
		}
	}
	fmt.Fprintf(w, "# TYPE gridbwrouter_cross_shard_total counter\n")
	fmt.Fprintf(w, "gridbwrouter_cross_shard_total %d\n", m.crossTotal.Load())
	fmt.Fprintf(w, "# TYPE gridbwrouter_cross_shard_outcomes_total counter\n")
	fmt.Fprintf(w, "gridbwrouter_cross_shard_outcomes_total{outcome=\"confirmed\"} %d\n", m.crossConfirmed.Load())
	fmt.Fprintf(w, "gridbwrouter_cross_shard_outcomes_total{outcome=\"rejected\"} %d\n", m.crossRejected.Load())
	fmt.Fprintf(w, "gridbwrouter_cross_shard_outcomes_total{outcome=\"failed\"} %d\n", m.crossFailed.Load())
	fmt.Fprintf(w, "# TYPE gridbwrouter_cross_shard_latency_seconds summary\n")
	writeLatency(w, "gridbwrouter_cross_shard_latency_seconds", "", m.crossLat)
	fmt.Fprintf(w, "# TYPE gridbwrouter_batches_total counter\n")
	fmt.Fprintf(w, "gridbwrouter_batches_total %d\n", m.batches.Load())
	fmt.Fprintf(w, "# TYPE gridbwrouter_batch_fanout_total counter\n")
	fmt.Fprintf(w, "gridbwrouter_batch_fanout_total %d\n", m.batchFanout.Load())
}

func writeLatency(w io.Writer, name, label string, h *metrics.Histogram) {
	sep := ""
	if label != "" {
		sep = ","
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		fmt.Fprintf(w, "%s{%s%squantile=\"%g\"} %g\n", name, label, sep, q, h.Quantile(q).Seconds())
	}
	if label != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, label, h.Sum().Seconds())
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum().Seconds())
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}
}
