package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {51, 60}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{15, 50}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSelfTimeByContainment(t *testing.T) {
	parent := span{Name: "router.batch", Start: 0, End: 1000}
	// Cross-shard fan-out: two overlapping shard trips and one disjoint,
	// one of them sticking out of the parent.
	children := []span{
		{Name: "trip", Start: 100, End: 400},
		{Name: "trip", Start: 300, End: 600},
		{Name: "trip", Start: 800, End: 1200},
	}
	if got := covered(parent.Start, parent.End, children); got != 700 {
		t.Errorf("covered = %d, want 700 (100..600 and 800..1000)", got)
	}
	if got := selfTime(parent, children); got != 300 {
		t.Errorf("selfTime = %d, want 300", got)
	}
	if got := selfTime(parent, nil); got != 1000 {
		t.Errorf("selfTime without children = %d, want 1000", got)
	}
}

func TestParentsAreInnermostContainingSpans(t *testing.T) {
	list := []span{
		{Name: "trip-b", Start: 30, End: 70},
		{Name: "client", Start: 0, End: 100},
		{Name: "handler-a", Start: 25, End: 45},
		{Name: "router", Start: 10, End: 90},
		{Name: "trip-a", Start: 20, End: 50},
	}
	assignParents(list, 0)
	parent := map[string]string{}
	byID := map[int]string{-1: ""}
	for _, s := range list {
		byID[s.ID] = s.Name
	}
	for _, s := range list {
		parent[s.Name] = byID[s.Parent]
	}
	want := map[string]string{
		"client": "", "router": "client",
		// The overlapping trips are siblings, not parent and child.
		"trip-a": "router", "trip-b": "router",
		"handler-a": "trip-a",
	}
	if !reflect.DeepEqual(parent, want) {
		t.Errorf("parents = %v, want %v", parent, want)
	}
}

func TestDrawsAreAPureFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		vols := w.volumes()
		gen := func(seed int64) []op {
			var out []op
			for j := 0; j < 200; j++ {
				o := w.genOp(seed, phaseOpen, j, vols, nil)
				o.reqs = append([]reqDraw(nil), o.reqs...)
				out = append(out, o)
			}
			return out
		}
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: the same seed generated different operations", w.name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: different seeds generated the same operations", w.name)
		}
		if !reflect.DeepEqual(schedule(7, 0, w.openRate, 2), schedule(7, 0, w.openRate, 2)) {
			t.Errorf("%s: the same seed generated different schedules", w.name)
		}
		if reflect.DeepEqual(schedule(7, 0, w.openRate, 2), schedule(8, 0, w.openRate, 2)) {
			t.Errorf("%s: different seeds generated the same schedule", w.name)
		}
	}
}

func TestScheduleOffersThePinnedRate(t *testing.T) {
	due := schedule(3, 0, 5000, 4)
	if n := len(due); n < 19000 || n > 21000 {
		t.Errorf("4 s at 5000 ops/s scheduled %d ops", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
}

func TestYardstickAnswersAndStaysOutOfTheProgramsSamples(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.yard.soloUs <= 0 || w.yard.closedUs <= 0 || w.yard.openUs <= 0 {
			t.Errorf("%s: yardstick without nominal readings: %+v", w.name, w.yard)
		}
		y, err := newYardstick(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		vols := w.volumes()
		for j := 0; j < 20; j++ {
			if err := y.exec(1, j, vols); err != nil {
				t.Errorf("%s: yardstick op %d: %v", w.name, j, err)
			}
		}
		if a, err := y.allocsPerOp(1, vols); err != nil || a <= 0 {
			t.Errorf("%s: allocsPerOp = %v, %v", w.name, a, err)
		}
		y.close()
	}
	recs := [][]opRec{{
		{kind: opSubmit, due: 0, end: 30},
		{kind: opSubmit, due: 0, end: 10, yard: true},
		{kind: opSubmit, due: 0, end: 20},
		{kind: opSubmit, due: 0, end: 99, failed: true},
		{kind: opBatch, due: 0, end: 50},
	}}
	if got := latencies(recs, opSubmit, false); !reflect.DeepEqual(got, []int64{20, 30}) {
		t.Errorf("the program's submit latencies = %v, want [20 30]", got)
	}
	if got := latencies(recs, opSubmit, true); !reflect.DeepEqual(got, []int64{10}) {
		t.Errorf("the yardstick's latencies = %v, want [10]", got)
	}
}

// small shrinks a workload to smoke-test size: the same topology, mix and
// checks, a warm-up of one eighth of the retention ring.
func small(w workloadSpec) *workloadSpec {
	w.warmup = 512
	return &w
}

func TestEveryWorkloadRunsChecksAndEmitsItsMetrics(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		w := small(workloads[i])
		res, err := runWorkload(w, 1, 0.7, out)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d failed operations: %v", w.name, res.Failed, res.Failures)
		}
		if res.Attempted < 100 {
			t.Errorf("%s: only %d operations attempted", w.name, res.Attempted)
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
			}
			if ok && m.Value <= 0 {
				t.Errorf("%s: metric %s = %v, want a positive measurement", w.name, d.Name, m.Value)
			}
		}
		// A calibrated timing is the raw one over the yardstick's slowdown.
		slowdown := res.Metrics["yard.open_p50_us"].Value / w.yard.openUs
		if raw, cal := res.Metrics["raw.submit_p50_us"].Value, res.Metrics["submit_p50_us"].Value; slowdown <= 0 || math.Abs(cal*slowdown-raw) > 1e-6*raw {
			t.Errorf("%s: submit_p50_us %v x slowdown %v is not the raw median %v", w.name, cal, slowdown, raw)
		}
		if entries, _ := os.ReadDir(filepath.Join(out, "tmp")); len(entries) != 0 {
			t.Errorf("%s: left %d entries under the scratch directory", w.name, len(entries))
		}
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke boots ten topologies")
	}
	defer func(a, b int) { traceOps, auxTraceOps = a, b }(traceOps, auxTraceOps)
	traceOps, auxTraceOps = 200, 100
	out := t.TempDir()
	// The single-daemon workload needs both auxiliary topologies, the
	// quorum workload runs its own group traced.
	for _, name := range []string{"single_json", "quorum_durable"} {
		w := small(*workloadByName(name))
		tres, err := traceWorkload(w, 1, 1, out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tres.Correct {
			t.Errorf("%s: failed checks: %v", name, tres.Failures)
		}
		for _, d := range perLayer {
			if m, ok := tres.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s missing or in unit %q, want %q", name, d.Name, m.Unit, d.Unit)
			}
		}
		if len(tres.Budget.Stages) != len(stageNames) {
			t.Errorf("%s: budget has %d stages, want %d", name, len(tres.Budget.Stages), len(stageNames))
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+name+".jsonl")); err != nil {
			t.Errorf("%s: span file: %v", name, err)
		}
	}
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's own lists; regenerate it with `go run -C bench . manifest`\n got %+v\nwant %+v", got, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range got.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == lower {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	for _, d := range got.PerLayer {
		check(d.Name)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}
