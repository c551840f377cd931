package router

import (
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

// write is the list of what gridbwrouter exports, in page order.
func (m *routerMetrics) write(w io.Writer) {
	e := metrics.NewExposition(w)
	e.Counter("gridbwrouter_shard_calls_total", "Round trips the router made to a shard.")
	for _, sm := range m.shards {
		e.Set(sm.calls.Load(), "shard", sm.name)
	}
	e.Counter("gridbwrouter_shard_errors_total", "Round trips to a shard that failed.")
	for _, sm := range m.shards {
		e.Set(sm.errors.Load(), "shard", sm.name)
	}
	e.Summary("gridbwrouter_shard_latency_seconds", "Duration of a round trip to a shard.")
	for _, sm := range m.shards {
		e.Latency(sm.lat, "shard", sm.name)
	}
	e.Counter("gridbwrouter_hold_calls_total", "List-shaped hold calls made to a shard, by op.")
	for _, sm := range m.shards {
		for op, name := range holdOpNames {
			e.Set(sm.holdCalls[op].Load(), "shard", sm.name, "op", name)
		}
	}
	e.Counter("gridbwrouter_hold_items_total", "Holds those calls carried; over hold calls, the cross-shard batching factor.")
	for _, sm := range m.shards {
		for op, name := range holdOpNames {
			e.Set(sm.holdItems[op].Load(), "shard", sm.name, "op", name)
		}
	}
	e.Counter("gridbwrouter_cross_shard_total", "Submissions decided through the cross-shard two-phase protocol.").Set(m.crossTotal.Load())
	e.Counter("gridbwrouter_cross_shard_outcomes_total", "How those ended: committed on both owners, rejected by one, or failed on a shard error.")
	e.Set(m.crossConfirmed.Load(), "outcome", "confirmed")
	e.Set(m.crossRejected.Load(), "outcome", "rejected")
	e.Set(m.crossFailed.Load(), "outcome", "failed")
	e.Summary("gridbwrouter_cross_shard_latency_seconds", "Duration of a whole two-phase run, both RESERVEs and the CONFIRMs.").Latency(m.crossLat)
	e.Counter("gridbwrouter_batches_total", "Batch calls scattered.").Set(m.batches.Load())
	e.Counter("gridbwrouter_batch_fanout_total", "Shard groups plus cross-shard singles those batches fanned out to.").Set(m.batchFanout.Load())
}
