// Command bench is gridbw's end-to-end and per-layer benchmark: four
// workloads against the real stack wired in-process the way cmd/gridbwd
// and cmd/gridbwrouter wire it, driven through internal/server/client.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// is one run of one workload (the benchmark driver's form; the last line
// of standard output is the result as one JSON object), and
//
//	bash bench/run.sh run | trace | repeat [-workload W] [-seed N] [-seconds S] [-runs N] [-json FILE]
//
// runs the whole set, each workload in a child process of its own.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "run", "trace", "repeat":
			return setMain(args[0], args[1:])
		case "manifest":
			b, _ := json.MarshalIndent(buildManifest(), "", "  ")
			fmt.Println(string(b))
			return 0
		}
		fmt.Fprintf(os.Stderr, "bench: unknown command %q (want run, trace, repeat or --workload ...)\n", args[0])
		return 2
	}
	return oneMain(args)
}

// oneMain is one run of one workload in this process.
func oneMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds")
	trace := fs.Int("trace", 0, "0: untraced end-to-end run, 1: traced per-layer run")
	out := fs.String("out", "out", "directory for span files, WAL directories and other scratch")
	jsonPath := fs.String("json", "", "also write the full result (metrics, notes, machine block) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env := collectEnv(*seed, *out)
	defs, run := endToEnd, runWorkload
	if *trace == 1 {
		defs, run = perLayer, traceWorkload
	}
	res, err := run(w, *seed, *seconds, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if res.Budget != nil {
		fmt.Print(res.Budget.table())
	}
	res.Env = env
	printResult(res)
	if err := writeJSON(*jsonPath, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The driver's line: exactly the metrics BENCHMARK.json lists for
	// this kind of run.
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", d.Name)
			return 1
		}
		line.Metrics[d.Name] = m
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeJSON writes v, indented, to path; an empty path writes nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// printResult prints every metric by name with its unit, then the notes,
// the failures and the machine block.
func printResult(res *result) {
	fmt.Printf("workload %s  seed %d\n", res.Workload, res.Seed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-38s %16.4f %-6s %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit, res.Notes[n])
	}
	notes := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		if _, isMetric := res.Metrics[k]; !isMetric {
			notes = append(notes, k)
		}
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Printf("  note %s = %s\n", k, res.Notes[k])
	}
	for _, f := range res.Failures {
		fmt.Println("  FAILED CHECK:", f)
	}
	if res.Invalid != "" {
		fmt.Println("  INVALID:", res.Invalid)
	}
	if e := res.Env; e != nil {
		fmt.Printf("  machine: %d cpus (GOMAXPROCS %d), %s, %s, kernel %s, commit %s, WAL dir on %s, fsync probe %.1f us, loopback rtt %.1f us, cpu probe %.1f us; %s\n",
			e.NProc, e.GOMAXPROCS, e.CPUModel, e.GoVersion, e.Kernel, e.GitCommit, e.WALDirFS, e.FsyncProbeUs, e.LoopbackRTTUs, e.CPUProbeUs, e.Network)
	}
}

// runChild runs one workload in a child process of its own — so setup_s
// and peak_rss_mb are that workload's — and reads its full result back.
func runChild(w *workloadSpec, seed int64, seconds float64, trace int, out string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("result-%s-%d-%d.json", w.name, trace, os.Getpid()))
	defer os.Remove(path)
	cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace), "--out", out, "--json", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, runErr)
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// setMain is the run / trace / repeat subcommands over the workload set.
func setMain(cmd string, args []string) int {
	fs := flag.NewFlagSet("bench "+cmd, flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per run")
	out := fs.String("out", "out", "directory for span files, WAL directories and other scratch")
	jsonPath := fs.String("json", "", "write all results (repeat: the medians and spreads of both passes) to this file")
	runs := fs.Int("runs", 1, "runs per workload and pass, run k with seed+k")
	if err := fs.Parse(args); err != nil || *runs < 1 {
		return 2
	}
	set := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		set = []workloadSpec{*w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	trace := 0
	if cmd == "trace" {
		trace = 1
	}
	var seeds []int64
	for k := 0; k < *runs; k++ {
		seeds = append(seeds, *seed+int64(k))
	}
	// runSet runs every workload of order once per seed, each run in a
	// child process of its own.
	runSet := func(order []workloadSpec) ([]*result, bool) {
		var results []*result
		ok := true
		for i := range order {
			for _, s := range seeds {
				res, err := runChild(&order[i], s, *seconds, trace, *out)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return results, false
				}
				results = append(results, res)
				if !res.Correct {
					ok = false
				}
			}
		}
		return results, ok
	}
	results, ok := runSet(set)
	var report any = results
	switch cmd {
	case "run":
		for _, r := range results {
			if r.Invalid != "" {
				fmt.Printf("INVALID %s: %s\n", r.Workload, r.Invalid)
				ok = false
			}
		}
	case "trace":
		if ok && !traceGates(results) {
			ok = false
		}
	case "repeat":
		if !ok {
			break
		}
		reversed := make([]workloadSpec, len(set))
		for i := range set {
			reversed[len(set)-1-i] = set[i]
		}
		second, ok2 := runSet(reversed)
		rows, agree := compareSets(results, second)
		ok = ok2 && agree
		report = baseline{Env: results[0].Env, RunSeconds: *seconds, Seeds: seeds, Rows: rows}
	}
	if err := writeJSON(*jsonPath, report); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
