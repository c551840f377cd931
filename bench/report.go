package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// budget is the traced submit's per-stage table, carried in the result so
// the trace subcommand can gate on it.
type budget struct {
	Stages         []float64 `json:"stage_medians_us"` // stageNames order
	SubmitUs       float64   `json:"traced_submit_median_us"`
	Residual       float64   `json:"residual_share"`
	Overhead       float64   `json:"overhead_share"`
	QuorumSubmitUs float64   `json:"quorum_submit_median_us"`
}

// Gates of the trace subcommand: the stage medians must add up to the
// traced end-to-end median, and tracing must not be what was measured.
const (
	maxResidual = 0.15
	maxOverhead = 0.25
)

// traceGates prints each workload's budget verdict and the cross-check
// against the committed micro-benchmark snapshots; it reports whether
// every gate held.
func traceGates(results []*result) bool {
	ok := true
	for _, r := range results {
		b := r.Budget
		if b == nil {
			continue
		}
		verdict := "ok"
		if b.Residual > maxResidual || b.Overhead > maxOverhead {
			verdict = "GATE FAILED"
			ok = false
		}
		fmt.Printf("budget %-16s residual %.3f (max %.2f)  tracing overhead %.3f (max %.2f)  %s\n",
			r.Workload, b.Residual, maxResidual, b.Overhead, maxOverhead, verdict)
	}
	if len(results) > 0 {
		crossCheck(results[0])
	}
	return ok
}

// snapshot is the shape of the repo's BENCH_*.json files.
type snapshot struct {
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

func snapshotNs(file, name string) (float64, bool) {
	b, err := os.ReadFile(filepath.Join("..", file))
	if err != nil {
		return 0, false
	}
	var s snapshot
	if json.Unmarshal(b, &s) != nil {
		return 0, false
	}
	for _, bm := range s.Benchmarks {
		if bm.Name == name {
			return bm.NsPerOp, true
		}
	}
	return 0, false
}

// crossCheck prints the harness's numbers beside the committed `go test
// -bench` snapshots measuring the same path. The workloads differ in
// traffic, so agreement within 2× is the expectation; more than that
// means the harness is wired differently from the micro-benchmark, not
// that something regressed.
func crossCheck(r *result) {
	direct, okD := snapshotNs("BENCH_router.json", "RouterDirectSubmit")
	same, okS := snapshotNs("BENCH_router.json", "RouterSameShardSubmit")
	cross, okC := snapshotNs("BENCH_router.json", "RouterCrossShardSubmit")
	admit, okA := snapshotNs("BENCH_server.json", "ServerAdmit")
	repl, okR := snapshotNs("BENCH_repl.json", "ReplSyncAckAdmit")
	if !(okD && okS && okC && okA && okR) {
		fmt.Println("cross-check: BENCH_*.json snapshots not found beside bench/, skipped")
		return
	}
	fmt.Printf("cross-check against the committed micro-snapshots (%s, seed %d):\n", r.Workload, r.Seed)
	row := func(name string, got, want float64, unit string) {
		note := ""
		if got > 2*want || want > 2*got {
			note = "  <- differs by more than 2x: check the harness wiring"
		}
		fmt.Printf("  %-22s %10.2f %-5s snapshot %10.2f%s\n", name, got, unit, want, note)
	}
	row("core.submit_us", r.Metrics["core.submit_us"].Value, admit/1e3, "us")
	row("router.direct_us", r.Metrics["router.direct_us"].Value, direct/1e3, "us")
	row("router.tax_same", r.Metrics["router.tax_same"].Value, same/direct, "ratio")
	row("router.tax_cross", r.Metrics["router.tax_cross"].Value, cross/direct, "ratio")
	if r.Budget != nil {
		row("quorum submit median", r.Budget.QuorumSubmitUs, repl/1e3, "us")
	}
}

// baselineRow is one workload × end-to-end metric of `bench repeat`: the
// median and the quartile spread of each pass, as the benchmark driver
// computes them.
type baselineRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	// Median and Spread hold the first and the second pass. Spread is the
	// distance between the first and the third quartile as a share of the
	// median; 0 when a pass made a single run.
	Median [2]float64 `json:"median"`
	Spread [2]float64 `json:"spread"`
	// Worse is how far the worse pass's median lies from the better one's,
	// as a share of the better one's.
	Worse float64 `json:"worse_by"`
}

// baseline is what `bench repeat -json` writes: the numbers later changes
// are compared against, with the machine they were measured on.
type baseline struct {
	Env        *envInfo      `json:"env"`
	RunSeconds float64       `json:"run_seconds"`
	Seeds      []int64       `json:"seeds"`
	Rows       []baselineRow `json:"rows"`
}

// compareSets is the verdict of `bench repeat`: two passes of the same
// code must agree within the benchmark's own bounds on every workload ×
// end-to-end metric, the runs of a pass must spread by less than the bound
// (set-up time excepted, as in the driver), and at most a fifth of a
// workload's runs in a pass may be invalid.
func compareSets(first, second []*result) ([]baselineRow, bool) {
	ok := true
	// A lone invalid run was disturbed, and the medians absorb it; when
	// more than a fifth of a workload's runs in a pass are invalid, the
	// pinned rate is too high for this box and its latencies mean nothing.
	for _, set := range [][]*result{first, second} {
		invalid, runs := map[string]int{}, map[string]int{}
		for _, r := range set {
			runs[r.Workload]++
			if r.Invalid != "" {
				fmt.Printf("INVALID %s seed %d: %s\n", r.Workload, r.Seed, r.Invalid)
				invalid[r.Workload]++
			}
		}
		for name, n := range invalid {
			if 5*n > runs[name] {
				fmt.Printf("%s: %d of %d runs invalid\n", name, n, runs[name])
				ok = false
			}
		}
	}
	values := func(set []*result, workload, name string) []float64 {
		var out []float64
		for _, r := range set {
			if r.Workload == workload {
				out = append(out, r.Metrics[name].Value)
			}
		}
		return out
	}
	var rows []baselineRow
	fmt.Printf("%-16s %-24s %14s %14s %8s %8s %9s %6s\n", "workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "worse by", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values(first, w.name, d.Name), values(second, w.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			row := baselineRow{Workload: w.name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
				Median: [2]float64{median(a), median(b)}, Spread: [2]float64{quartileSpread(a), quartileSpread(b)}}
			// Either pass may be the better one: the distance between the
			// two medians, relative to the better, is what the bound limits.
			better, worse := row.Median[0], row.Median[1]
			if (worse < better) == (d.Better == lower) {
				better, worse = worse, better
			}
			row.Worse = math.Abs(worse-better) / better
			flag := ""
			switch {
			case row.Worse > d.Bound:
				flag = "  MEDIANS DIFFER BY MORE THAN THE BOUND"
				ok = false
			case d.Name != "setup_s" && (row.Spread[0] > d.Bound || row.Spread[1] > d.Bound):
				flag = "  SPREAD EXCEEDS BOUND"
				ok = false
			case d.Name != "setup_s" && (row.Spread[0] > d.Bound/3 || row.Spread[1] > d.Bound/3):
				flag = "  (spread above a third of the bound)"
			}
			fmt.Printf("%-16s %-24s %14.4f %14.4f %7.1f%% %7.1f%% %8.1f%% %5.0f%%%s\n", w.name, d.Name,
				row.Median[0], row.Median[1], 100*row.Spread[0], 100*row.Spread[1], 100*row.Worse, 100*d.Bound, flag)
			rows = append(rows, row)
		}
	}
	return rows, ok
}
