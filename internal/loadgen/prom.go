package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"gridbw/internal/metrics"
)

// promLEBounds are the fixed upper bounds of the exported latency
// histogram, chosen to bracket sub-millisecond LAN admissions up through
// multi-second stalls.
var promLEBounds = []time.Duration{
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// WritePrometheus renders the recorder's live state in Prometheus text
// exposition format: the list of what gridbwload exports, in page order.
func (r *Recorder) WritePrometheus(w io.Writer) {
	e := metrics.NewExposition(w)
	e.Counter("gridbwload_arrivals_total", "Scheduled arrivals fired, by phase.")
	for _, ps := range r.phases {
		e.Set(ps.fired.Load(), "phase", ps.name)
	}
	e.Counter("gridbwload_ops_total", "Operation outcomes, by phase.")
	for _, ps := range r.phases {
		for o := Outcome(0); o < numOutcomes; o++ {
			if n := ps.outcomes[o].Load(); n > 0 {
				e.Set(n, "phase", ps.name, "outcome", o.String())
			}
		}
	}
	e.Counter("gridbwload_cross_shard_total", "Decisions routed through the cross-shard two-phase protocol, by phase.")
	for _, ps := range r.phases {
		if n := ps.cross.Load(); n > 0 {
			e.Set(n, "phase", ps.name)
		}
	}
	e.Gauge("gridbwload_inflight_vus", "Virtual users with a request in flight.").Set(r.inflight.Load())
	e.Gauge("gridbwload_max_vus", "Virtual users the run was given.").Set(r.vus)

	// Cross-shard decisions carry their own route-tagged series so the
	// two-phase protocol's extra round trips stay visible instead of
	// averaging into the aggregate tail; they appear only once a phase has
	// seen a routed decision.
	e.Summary("gridbwload_latency_seconds", "Wall latency of a completed operation as the client saw it, by phase.")
	all := append(r.phases, r.total)
	for _, ps := range all {
		e.Latency(ps.lat, "phase", ps.name)
	}
	for _, ps := range all {
		if ps.latCross.Count() > 0 {
			e.Latency(ps.latCross, "phase", ps.name, "route", "cross_shard")
		}
	}

	// A classic le-bucketed histogram over the whole run for scrapers that
	// aggregate with histogram_quantile.
	e.Histogram("gridbwload_latency_bucket_seconds", "The same latency over the whole run, in fixed buckets.").Buckets(r.total.lat, promLEBounds)
}

// serveProm starts the live observation endpoint on addr: /metrics in
// Prometheus text form, /report as the in-progress JSON report. It
// returns the bound address (so ":0" works) and a shutdown func.
func (r *Recorder) serveProm(addr string, report func() Report) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("loadgen: prometheus listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(report())
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}
