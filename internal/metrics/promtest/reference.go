package promtest

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite this process's rows of the README metrics reference from the fixture page (one package at a time: -p 1)")

// bytesPerSecond are the two families allowed to keep a non-base unit
// suffix. Their value is bytes per second, whatever "_bps" suggests; the
// rename to _bytes_per_second waits for ROADMAP item 6, where it can move
// together with the JSON API's capacity_bps/used_bps fields of the same
// points.
var bytesPerSecond = map[string]bool{
	"gridbwd_point_capacity_bps": true,
	"gridbwd_point_used_bps":     true,
}

// scaledUnits are name parts that say a value is not in a base unit.
var scaledUnits = map[string]bool{
	"ms": true, "us": true, "ns": true, "milliseconds": true, "microseconds": true, "nanoseconds": true,
	"bps": true, "kb": true, "mb": true, "gb": true, "kib": true, "mib": true, "gib": true, "bits": true,
}

// Lint holds family names to the naming rules: a counter ends in _total and
// nothing else does, and a unit in a name is a base unit (_seconds, _bytes).
func Lint(families []Family) []error {
	var errs []error
	for _, f := range families {
		if total := strings.HasSuffix(f.Name, "_total"); total != (f.Type == "counter") {
			errs = append(errs, fmt.Errorf("%s is a %s: counters, and only counters, end in _total", f.Name, f.Type))
		}
		for _, part := range strings.Split(f.Name, "_") {
			if scaledUnits[part] && !bytesPerSecond[f.Name] {
				errs = append(errs, fmt.Errorf("%s carries the unit %q: export base units (_seconds, _bytes)", f.Name, part))
			}
		}
	}
	return errs
}

// Paths from the directory of a package two levels down (internal/x), where
// all three pages are tested.
const (
	seriesFile = "testdata/metrics_series_pr19.txt"
	readme     = "../../README.md"
)

// Check is what each of the three pages goes through in its package's test,
// rendered from a fixture that lights every conditional family: the strict
// parse, the name lint, every series identity the hand-typed writer of PR 19
// rendered from the same fixture (recorded in the package's seriesFile before
// that writer was deleted), and this process's rows of the README reference
// table.
func Check(t *testing.T, text, process string) *Page {
	t.Helper()
	page, err := Parse(text)
	if err != nil {
		t.Fatalf("%s page is not valid text exposition 0.0.4: %v\n%s", process, err, text)
	}
	for _, err := range Lint(page.Families) {
		t.Error(err)
	}
	was, err := os.ReadFile(seriesFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range strings.Fields(string(was)) {
		if !slices.Contains(page.Series, id) {
			t.Errorf("series %s was on the %s page before the one writer and is gone", id, process)
		}
	}
	checkReference(t, page, process)
	return page
}

const (
	refBegin = "<!-- metrics-reference:begin -->"
	refEnd   = "<!-- metrics-reference:end -->"
)

// checkReference compares the rows of one process in the README's metrics
// table with the page's families; with -update it rewrites them in place.
func checkReference(t *testing.T, page *Page, process string) {
	t.Helper()
	var want []string
	for _, f := range page.Families {
		labels := "—"
		if len(f.Labels) > 0 {
			labels = "`" + strings.Join(f.Labels, "`, `") + "`"
		}
		want = append(want, fmt.Sprintf("| `%s` | %s | %s | %s | %s |", f.Name, f.Type, labels, f.Help, process))
	}
	blob, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(blob)
	begin, end := strings.Index(doc, refBegin), strings.Index(doc, refEnd)
	if begin < 0 || end < begin {
		t.Fatalf("%s has no %s … %s block", readme, refBegin, refEnd)
	}
	// before and after are the header and the other processes' rows.
	var got, before, after []string
	for _, row := range strings.Split(strings.TrimSpace(doc[begin+len(refBegin):end]), "\n") {
		switch {
		case strings.HasSuffix(row, "| "+process+" |"):
			got = append(got, row)
		case len(got) == 0:
			before = append(before, row)
		default:
			after = append(after, row)
		}
	}
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	if !*update {
		t.Fatalf("the %s rows of the metrics reference in %s are stale; rerun this test with -update.\nhave:\n%s\nwant:\n%s",
			process, readme, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	table := strings.Join(append(append(before, want...), after...), "\n")
	if err := os.WriteFile(readme, []byte(doc[:begin+len(refBegin)]+"\n"+table+"\n"+doc[end:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
