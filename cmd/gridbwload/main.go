// Command gridbwload is the open-loop scaletest harness for gridbwd: it
// drives a running daemon (or a primary/standby pair) with thousands of
// concurrent virtual users paced by a seeded arrival schedule, records
// HDR-style latency histograms and per-outcome counters per ramp phase,
// serves them live in Prometheus text form while the run is in flight,
// and writes a machine-readable JSON report on exit.
//
// The load is open-loop: arrivals fire on schedule whether or not
// earlier requests have answered, so a slow daemon earns visible latency
// and drops instead of silently thinning the offered rate (coordinated
// omission). The schedule and every request draw are pure functions of
// -seed, so a run is reproducible bit for bit.
//
// Examples:
//
//	gridbwload -target http://127.0.0.1:8080 -vus 5000 -rate 1000 \
//	    -ramp-up 10s -duration 60s -ramp-down 5s \
//	    -prom :9090 -output report.json -fail-on 'p99<50ms,errors<0.1%'
//
//	gridbwload -target http://primary:8080,http://standby:8081 \
//	    -arrivals burst -burst-cycle 20s -burst-on 0.25 -burst-factor 3
//
// Exit status: 0 on a clean run, 1 on harness failure, 2 when the
// -fail-on gate is violated.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gridbw/internal/check"
	"gridbw/internal/loadgen"
	"gridbw/internal/units"
	"gridbw/internal/workload"
)

// errGateFailed distinguishes a violated regression gate (exit 2) from a
// harness failure (exit 1).
var errGateFailed = errors.New("gridbwload: fail-on gate violated")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errGateFailed):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "gridbwload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gridbwload", flag.ContinueOnError)
	var (
		target   = fs.String("target", "http://127.0.0.1:8080", "daemon or router base URL(s), comma separated; the first is primary, the rest failover fallbacks. Against a gridbwrouter the report gains cross_shard counts")
		vus      = fs.Int("vus", 1000, "virtual users (concurrency cap; arrivals beyond it are dropped, not queued)")
		rate     = fs.Float64("rate", 500, "steady-state offered arrivals per second")
		rampUp   = fs.Duration("ramp-up", 5*time.Second, "linear ramp from zero to -rate")
		duration = fs.Duration("duration", 30*time.Second, "steady plateau at -rate")
		rampDown = fs.Duration("ramp-down", 5*time.Second, "linear ramp from -rate back to zero")
		arrivals = fs.String("arrivals", "poisson", "arrival process: poisson or burst")
		burstCyc = fs.Duration("burst-cycle", 20*time.Second, "burst mode: cycle length")
		burstOn  = fs.Float64("burst-on", 0.25, "burst mode: fraction of each cycle spent bursting")
		burstFac = fs.Float64("burst-factor", 3, "burst mode: on-phase rate as a multiple of the mean")
		mix      = fs.String("mix", "submit=90,cancel=5,batch=5", "operation weights")
		batchSz  = fs.Int("batch-size", 8, "submissions per batch operation")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request deadline")
		retries  = fs.Int("retries", 2, "extra attempts after transport failures (same idempotency key); negative disables")
		seed     = fs.Int64("seed", 1, "seed for the arrival schedule and request draws")
		prom     = fs.String("prom", "", "serve live Prometheus text on this address during the run (e.g. :9090; empty disables)")
		output   = fs.String("output", "", "write the JSON report here (empty: stdout)")
		history  = fs.String("history", "", "record every client-observed operation as JSON lines here, for the offline invariant checker (empty disables)")
		durable  = fs.Bool("durable", false, "mark every submission durable: acks park until the decision is replicated")
		failOn   = fs.String("fail-on", "", "regression gate, e.g. 'p99<50ms,errors<0.1%,drops<=1%' (empty disables)")
		ingress  = fs.Int("ingress-points", 2, "ingress point count of the target daemon (placement draw bound)")
		egress   = fs.Int("egress-points", 2, "egress point count of the target daemon")
		volumes  = fs.String("volumes", "", "comma-separated volume ladder (e.g. 10GB,100GB); empty uses the paper's ladder")
		rateMin  = fs.String("rate-min", "10MB/s", "minimum host transmission rate")
		rateMax  = fs.String("rate-max", "1GB/s", "maximum host transmission rate")
		slack    = fs.Float64("slack", 2, "deadline slack: deadline = slack x volume/maxRate from now")
		drain    = fs.Duration("drain", 30*time.Second, "wait for in-flight requests after the last arrival")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := loadgen.Config{
		Targets:      strings.Split(*target, ","),
		VUs:          *vus,
		Phases:       loadgen.Ramp(*rampUp, *duration, *rampDown, *rate),
		Timeout:      *timeout,
		Retries:      *retries,
		Seed:         *seed,
		NumIngress:   *ingress,
		NumEgress:    *egress,
		Slack:        *slack,
		FailOn:       *failOn,
		PromAddr:     *prom,
		DrainTimeout: *drain,
		Durable:      *durable,
	}
	for i, t := range cfg.Targets {
		cfg.Targets[i] = strings.TrimSpace(t)
	}

	switch *arrivals {
	case "poisson":
	case "burst":
		cfg.Burst = &workload.BurstConfig{
			Cycle:      units.Time((*burstCyc).Seconds()),
			OnFraction: *burstOn,
			Factor:     *burstFac,
		}
	default:
		return fmt.Errorf("unknown -arrivals %q (want poisson or burst)", *arrivals)
	}

	var err error
	if cfg.Mix, err = parseMix(*mix, *batchSz); err != nil {
		return err
	}
	if cfg.Volumes, err = parseVolumes(*volumes); err != nil {
		return err
	}
	if cfg.RateMin, err = units.ParseBandwidth(*rateMin); err != nil {
		return fmt.Errorf("-rate-min: %w", err)
	}
	if cfg.RateMax, err = units.ParseBandwidth(*rateMax); err != nil {
		return fmt.Errorf("-rate-max: %w", err)
	}

	// SIGINT/SIGTERM cut the run short but still produce the report: a
	// half-finished scaletest with numbers beats a dead one without.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *history != "" {
		cfg.History = check.NewRecorder()
	}

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if cfg.History != nil {
		// The history lands even when the gate below fails — a failing run
		// is exactly the one whose client observations are worth checking.
		f, err := os.Create(*history)
		if err != nil {
			return fmt.Errorf("-history: %w", err)
		}
		if err := cfg.History.WriteJSONL(f); err != nil {
			f.Close()
			return fmt.Errorf("-history: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-history: %w", err)
		}
	}
	if werr := writeReport(rep, *output, stdout); werr != nil {
		return werr
	}
	if rep.Gate != nil && !rep.Gate.Pass {
		for _, v := range rep.Gate.Violations {
			fmt.Fprintln(stdout, "gate violation:", v)
		}
		return errGateFailed
	}
	return nil
}

func parseMix(spec string, batchSize int) (loadgen.Mix, error) {
	m := loadgen.Mix{BatchSize: batchSize}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		name, val, ok := strings.Cut(term, "=")
		if !ok {
			return m, fmt.Errorf("-mix term %q: want name=weight", term)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return m, fmt.Errorf("-mix term %q: bad weight", term)
		}
		switch strings.TrimSpace(name) {
		case "submit":
			m.Submit = w
		case "cancel":
			m.Cancel = w
		case "batch":
			m.Batch = w
		default:
			return m, fmt.Errorf("-mix term %q: unknown operation", term)
		}
	}
	if m.Submit+m.Cancel+m.Batch == 0 {
		return m, fmt.Errorf("-mix %q: all weights zero", spec)
	}
	return m, nil
}

func parseVolumes(spec string) ([]units.Volume, error) {
	if spec == "" {
		return nil, nil // loadgen defaults to the paper ladder
	}
	var out []units.Volume
	for _, s := range strings.Split(spec, ",") {
		v, err := units.ParseVolume(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("-volumes: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeReport(rep loadgen.Report, path string, stdout io.Writer) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "" {
		_, err = stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	// A one-line digest on stdout so CI logs show the headline numbers
	// without opening the report.
	fmt.Fprintf(stdout, "gridbwload: %d offered, %d finished (%.0f/s), p50=%.1fms p99=%.1fms p999=%.1fms, report %s\n",
		rep.OfferedArrivals, rep.Total.Finished, rep.AchievedRPS,
		rep.Total.Latency.P50Ms, rep.Total.Latency.P99Ms, rep.Total.Latency.P999Ms, path)
	return nil
}
