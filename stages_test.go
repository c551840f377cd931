package gridbw

import (
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
)

// The stage budget of a submit (scripts/stages.sh): BENCH_stages.json holds
// one column per run, each a scripts/bench.sh snapshot of the stage
// benchmarks and the wholes, plus the derived lines below. TestStagesSnapshot
// merges a run into the file when given -stages-column, and otherwise only
// checks that the file is well-formed: every path's whole is its floor, its
// plumbing, its named stages and its remainder, each sum from the column's
// own run, and no remainder is below −remainderMargin of its whole. No
// timing is gated.

var (
	stagesColumn = flag.String("stages-column", "", "merge the run in -stages-from into BENCH_stages.json as this column")
	stagesFrom   = flag.String("stages-from", "", "a scripts/bench.sh snapshot of the stage benchmarks and the wholes")
)

const stagesFile = "BENCH_stages.json"

// stagePaths are the paths a submit can take that a whole measures, and
// what each passes through: the floor is one loopback round trip per hop
// ("loopback"), the plumbing one call down the call stream per call
// ("call-pipe": the client, the stream and Server.Call without the kernel),
// and the stages the named work of the daemon. "global" is not summed:
// "idempotency" times the same section with the cache lookup in it. A routed
// submit is two calls, client to router and router to shard, and is decoded
// and encoded once more, by the router. A quorum submit is Server.Submit in
// process — no call — whose decision is encoded as a WAL record by the
// primary, read back by its replication stream, shipped over one loopback
// round trip and decoded by the follower before it acks. A cross-shard
// submit is four calls one after another — client to router, then the
// router's three hold waves: RESERVE on the ingress owner, RESERVE on the
// egress owner, CONFIRM on both at once — whose named work is the router's
// decode of the submit, the ingress owner's admission step and the router's
// encode of the answer; the hold lists' codecs, the egress check, the
// confirms and the hold records are its remainder. All four admit on sparse
// pairs. What is left of the whole is the remainder.
var stagePaths = []struct {
	path, whole             string
	floor, plumbing, stages []string
}{
	{"direct", "RouterDirectSubmit",
		[]string{"Stages/loopback"},
		[]string{"Stages/call-pipe"},
		[]string{"Stages/decode", "Stages/idempotency", "Stages/admit-sparse", "Stages/encode"}},
	{"routed", "RouterSameShardSubmit",
		[]string{"Stages/loopback", "Stages/loopback"},
		[]string{"Stages/call-pipe", "Stages/call-pipe"},
		[]string{"Stages/decode", "Stages/decode", "Stages/idempotency", "Stages/admit-sparse", "Stages/encode", "Stages/encode"}},
	{"quorum", "ReplSyncAckAdmit/fsync=interval",
		[]string{"Stages/loopback"},
		[]string{},
		[]string{"Stages/idempotency", "Stages/admit-sparse", "Stages/record-encode", "Stages/wal-append", "Stages/ship-read", "Stages/record-decode"}},
	{"cross", "RouterCrossShardSubmit",
		[]string{"Stages/loopback", "Stages/loopback", "Stages/loopback", "Stages/loopback"},
		[]string{"Stages/call-pipe", "Stages/call-pipe", "Stages/call-pipe", "Stages/call-pipe"},
		[]string{"Stages/decode", "Stages/admit-sparse", "Stages/encode"}},
}

// remainderMargin is how far below zero a path's remainder may fall, as a
// share of its whole. The floor, the plumbing and the stages are timed
// apart from the whole, so noise moves the remainder both ways: on the
// 2-core box of the committed columns the direct path's remainder read from
// +4% to −15% of its whole, and its whole alone 21–36 µs within one run. A
// remainder below the margin is more than that noise: a stage timed on work
// its path does not do, as a dense-pair admit charged to a sparse path was.
const remainderMargin = 0.20

type stageBench struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	BPerOp      float64  `json:"b_per_op"`
	AllocsPerOp float64  `json:"allocs_per_op"`
	P99NsPerOp  *float64 `json:"p99_ns_per_op,omitempty"`
}

type stageLine struct {
	Path        string   `json:"path"`
	Floor       []string `json:"floor"`
	FloorNs     float64  `json:"floor_ns"`
	Plumbing    []string `json:"plumbing"`
	PlumbingNs  float64  `json:"plumbing_ns"`
	Stages      []string `json:"stages"`
	SumNs       float64  `json:"sum_ns"`
	Whole       string   `json:"whole"`
	WholeNs     float64  `json:"whole_ns"`
	RemainderNs float64  `json:"remainder_ns"`
}

type stageColumn struct {
	Name       string          `json:"name"`
	Go         string          `json:"go"`
	Benchtime  string          `json:"benchtime"`
	Machine    json.RawMessage `json:"machine"`
	Benchmarks []stageBench    `json:"benchmarks"`
	Paths      []stageLine     `json:"paths"`
}

type stageSnapshot struct {
	Schema  int           `json:"schema"`
	Columns []stageColumn `json:"columns"`
}

// derivePaths computes a column's lines from its own benchmarks.
func derivePaths(col *stageColumn) ([]stageLine, error) {
	ns := map[string]float64{}
	for _, b := range col.Benchmarks {
		ns[b.Name] = b.NsPerOp
	}
	sum := func(names []string) (float64, error) {
		var total float64
		for _, name := range names {
			v, ok := ns[name]
			if !ok {
				return 0, errors.New("column " + col.Name + " has no " + name)
			}
			total += v
		}
		return math.Round(total*100) / 100, nil
	}
	var lines []stageLine
	for _, p := range stagePaths {
		whole, ok := ns[p.whole]
		if !ok {
			return nil, errors.New("column " + col.Name + " has no " + p.whole)
		}
		line := stageLine{Path: p.path, Floor: p.floor, Plumbing: p.plumbing, Stages: p.stages, Whole: p.whole, WholeNs: whole}
		var err error
		if line.FloorNs, err = sum(p.floor); err != nil {
			return nil, err
		}
		if line.PlumbingNs, err = sum(p.plumbing); err != nil {
			return nil, err
		}
		if line.SumNs, err = sum(p.stages); err != nil {
			return nil, err
		}
		line.RemainderNs = math.Round((whole-line.FloorNs-line.PlumbingNs-line.SumNs)*100) / 100
		lines = append(lines, line)
	}
	return lines, nil
}

func TestStagesSnapshot(t *testing.T) {
	var snap stageSnapshot
	blob, err := os.ReadFile(stagesFile)
	switch {
	case err == nil:
		if err := json.Unmarshal(blob, &snap); err != nil {
			t.Fatalf("%s: %v", stagesFile, err)
		}
	case errors.Is(err, os.ErrNotExist) && *stagesColumn != "":
		snap.Schema = 1
	default:
		t.Fatal(err)
	}
	if *stagesColumn != "" {
		run, err := os.ReadFile(*stagesFrom)
		if err != nil {
			t.Fatal(err)
		}
		col := stageColumn{Name: *stagesColumn}
		if err := json.Unmarshal(run, &col); err != nil {
			t.Fatalf("%s: %v", *stagesFrom, err)
		}
		col.Name = *stagesColumn
		if col.Paths, err = derivePaths(&col); err != nil {
			t.Fatal(err)
		}
		kept := snap.Columns[:0]
		for _, c := range snap.Columns {
			if c.Name != col.Name {
				kept = append(kept, c)
			}
		}
		snap.Columns = append(kept, col)
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stagesFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if snap.Schema != 1 || len(snap.Columns) == 0 {
		t.Fatalf("%s: schema %d with %d columns", stagesFile, snap.Schema, len(snap.Columns))
	}
	for i := range snap.Columns {
		col := &snap.Columns[i]
		if col.Name == "" || len(col.Machine) == 0 || col.Benchtime == "" {
			t.Errorf("column %d lacks its name, machine or benchtime", i)
		}
		want, err := derivePaths(col)
		if err != nil {
			t.Error(err)
			continue
		}
		if len(want) != len(col.Paths) {
			t.Errorf("column %s: %d paths, want %d", col.Name, len(col.Paths), len(want))
			continue
		}
		for j, w := range want {
			if g := col.Paths[j]; !reflect.DeepEqual(g, w) {
				t.Errorf("column %s path %s = %+v, want %+v from the column's own run", col.Name, w.Path, g, w)
			}
			if w.RemainderNs < -remainderMargin*w.WholeNs {
				t.Errorf("column %s path %s: remainder %.0f ns is below −%.0f%% of the whole %.0f ns: its stages count work the whole does not do",
					col.Name, w.Path, w.RemainderNs, 100*remainderMargin, w.WholeNs)
			}
		}
	}
}
