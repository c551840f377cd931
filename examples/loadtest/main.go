// Loadtest: scaletest the daemon open-loop with internal/loadgen.
//
// It boots gridbwd's server in-process on a loopback port, then drives it
// the way `cmd/gridbwload` would from the outside: a seeded open-loop
// arrival schedule ramps to 400 submissions/s across a few hundred
// virtual users, mixing single submissions, batches and cancellations,
// while a live Prometheus endpoint exposes per-phase outcome counters and
// latency percentiles mid-run. On exit it prints the per-phase report and
// evaluates a regression gate — the same machinery CI's scaletest job
// uses to fail a PR that slows the admission path down.
//
// Open-loop means the schedule never waits for responses: a stalled
// daemon earns visible latency and dropped arrivals instead of silently
// slowing the offered rate (the coordinated-omission trap of closed-loop
// harnesses).
//
// Run with: go run ./examples/loadtest
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"gridbw/internal/loadgen"
	"gridbw/internal/server"
	"gridbw/internal/units"
)

const promAddr = "127.0.0.1:9815"

func main() {
	// An in-process daemon: 4×4 points at 1 GB/s, generous shed limit.
	s, err := server.New(server.Config{
		Ingress:     []units.Bandwidth{units.GBps, units.GBps, units.GBps, units.GBps},
		Egress:      []units.Bandwidth{units.GBps, units.GBps, units.GBps, units.GBps},
		MaxInFlight: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := loadgen.Config{
		Targets:    []string{ts.URL},
		VUs:        400,
		Phases:     loadgen.Ramp(2*time.Second, 4*time.Second, 1*time.Second, 400),
		Mix:        loadgen.Mix{Submit: 85, Cancel: 10, Batch: 5, BatchSize: 4},
		Seed:       42,
		NumIngress: 4, NumEgress: 4,
		PromAddr: promAddr,
		FailOn:   "p99<250ms,errors<1%,drops<=5%",
	}

	done := make(chan loadgen.Report, 1)
	go func() {
		rep, err := loadgen.Run(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		done <- rep
	}()

	// Scrape the live endpoint mid-run, the way a dashboard would.
	time.Sleep(3 * time.Second)
	if resp, err := http.Get("http://" + promAddr + "/metrics"); err == nil {
		blob, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			fmt.Println("live exposition mid-run (excerpt):")
			for _, line := range strings.Split(string(blob), "\n") {
				if strings.HasPrefix(line, "gridbwload_arrivals_total") ||
					strings.HasPrefix(line, "gridbwload_inflight_vus") {
					fmt.Println(" ", line)
				}
			}
			fmt.Println()
		}
	}

	rep := <-done

	fmt.Printf("scaletest against %s: %d VUs, seed %d\n", ts.URL, rep.VUs, rep.Seed)
	fmt.Printf("offered %d arrivals over %.1fs → %.0f ops/s finished\n\n",
		rep.OfferedArrivals, rep.WallSeconds, rep.AchievedRPS)

	fmt.Printf("%-10s %9s %9s %9s %10s %10s %10s\n",
		"phase", "offered", "admitted", "rejected", "p50", "p99", "p999")
	for _, ph := range append(rep.Phases, rep.Total) {
		fmt.Printf("%-10s %9d %9d %9d %8.2fms %8.2fms %8.2fms\n",
			ph.Name, ph.Offered, ph.Outcomes["admitted"], ph.Outcomes["rejected"],
			ph.Latency.P50Ms, ph.Latency.P99Ms, ph.Latency.P999Ms)
	}

	fmt.Println("\noutcome totals:")
	names := make([]string, 0, len(rep.Total.Outcomes))
	for name := range rep.Total.Outcomes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-16s %d\n", name, rep.Total.Outcomes[name])
	}

	if rep.Gate != nil {
		fmt.Printf("\ngate %q: pass=%v\n", rep.Gate.Spec, rep.Gate.Pass)
		for _, v := range rep.Gate.Violations {
			fmt.Println("  violation:", v)
		}
	}

	// The daemon kept its own server-side admission-latency histogram —
	// the counterpart of the client-side percentiles above, split by the
	// wire — read here in-process.
	if lat := s.Status().Stats.AdmitLatency; lat != nil {
		sum := lat.Summary()
		fmt.Printf("\nserver-side admit latency over %d decisions: p50=%.3fms p99=%.3fms max=%.3fms\n",
			sum.Count, sum.P50Ms, sum.P99Ms, sum.MaxMs)
	}
}
