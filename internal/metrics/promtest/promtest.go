// Package promtest is test support: a strict reader of the Prometheus text
// exposition format 0.0.4, the name lint and the README reference table the
// three gridbw pages (gridbwd, gridbwrouter, gridbwload) are held to. It
// reads what internal/metrics writes and shares no code with it, so a slip in
// the writer cannot hide in its own checker.
package promtest

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Family is one metric family of a parsed page, in page order.
type Family struct {
	Name, Type, Help string
	// Labels are the label names its samples carry, in first-seen order,
	// without the quantile and le labels the type implies.
	Labels []string

	helped, typed bool
	samples       []sample
}

// Page is a text exposition that passed every check of Parse.
type Page struct {
	Families []Family
	// Series are the sorted identities — name{labels} as written, values
	// stripped — of every sample on the page.
	Series []string
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	types      = map[string]bool{"counter": true, "gauge": true, "summary": true, "histogram": true, "untyped": true}
	// suffixes are the sample names a family of that type has beside its own.
	suffixes = map[string][]string{"summary": {"_sum", "_count"}, "histogram": {"_bucket", "_sum", "_count"}}
)

type label struct{ name, value string }

type sample struct {
	name   string
	labels []label
	value  float64
}

// Parse reads a page and refuses anything format 0.0.4 does not allow or a
// scraper would have to guess at:
//
//   - every sample's family has exactly one HELP and one TYPE, both before
//     its first sample;
//   - the lines of a family are contiguous;
//   - metric and label names match the format's grammar;
//   - a label value escapes \, " and newline and nothing else;
//   - no series appears twice;
//   - each series of a summary has its _sum and _count, each series of a
//     histogram cumulative le buckets ending in +Inf, _sum and _count.
func Parse(page string) (*Page, error) {
	if page != "" && !strings.HasSuffix(page, "\n") {
		return nil, fmt.Errorf("page does not end in a newline")
	}
	p := &Page{}
	var cur *Family // the open family
	seen := map[string]bool{}
	series := map[string]bool{}
	for n, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		fail := func(format string, args ...any) (*Page, error) {
			return nil, fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.SplitN(line, " ", 4)
			if len(f) < 3 || f[0] != "#" || (f[1] != "HELP" && f[1] != "TYPE") {
				continue // a plain comment
			}
			name, text := f[2], strings.Join(f[3:], "")
			if !metricName.MatchString(name) {
				return fail("bad metric name %q", name)
			}
			if cur == nil || cur.Name != name {
				if seen[name] {
					return fail("family %s is not contiguous", name)
				}
				seen[name] = true
				p.Families = append(p.Families, Family{Name: name})
				cur = &p.Families[len(p.Families)-1]
			}
			switch {
			case len(cur.samples) > 0:
				return fail("%s after the first sample of %s", f[1], name)
			case f[1] == "HELP" && cur.helped, f[1] == "TYPE" && cur.typed:
				return fail("second %s for %s", f[1], name)
			case f[1] == "HELP":
				cur.helped, cur.Help = true, text
			case !types[text]:
				return fail("unknown type %q", text)
			default:
				cur.typed, cur.Type = true, text
			}
			continue
		}
		s, id, err := parseSample(line)
		if err != nil {
			return fail("%v", err)
		}
		fam := familyOf(s.name, cur)
		switch {
		case cur != nil && cur.Name == fam:
		case seen[fam]:
			return fail("family %s is not contiguous", fam)
		default:
			return fail("sample of %s before its HELP and TYPE", fam)
		}
		if !cur.helped || !cur.typed {
			return fail("family %s lacks HELP or TYPE before its first sample", fam)
		}
		canon := canonical(s)
		if series[canon] {
			return fail("series %s repeats", id)
		}
		series[canon] = true
		p.Series = append(p.Series, id)
		for _, l := range s.labels {
			implied := (l.name == "quantile" && cur.Type == "summary") || (l.name == "le" && cur.Type == "histogram")
			if !implied && !slices.Contains(cur.Labels, l.name) {
				cur.Labels = append(cur.Labels, l.name)
			}
		}
		cur.samples = append(cur.samples, s)
	}
	for _, f := range p.Families {
		var err error
		switch {
		case !f.helped || !f.typed:
			err = fmt.Errorf("family %s lacks HELP or TYPE", f.Name)
		case f.Type == "summary":
			err = checkSummary(f.Name, f.samples)
		case f.Type == "histogram":
			err = checkHistogram(f.Name, f.samples)
		}
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(p.Series)
	return p, nil
}

// familyOf maps a sample name to its family: itself, or the open summary or
// histogram whose _sum, _count or _bucket line it is.
func familyOf(name string, cur *Family) string {
	if cur == nil || name == cur.Name {
		return name
	}
	for _, suf := range suffixes[cur.Type] {
		if name == cur.Name+suf {
			return cur.Name
		}
	}
	return name
}

// parseSample reads `name{label="value",...} value`, and returns with it the
// series identity exactly as written.
func parseSample(line string) (sample, string, error) {
	var s sample
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, "", fmt.Errorf("no value")
	}
	s.name = line[:i]
	if !metricName.MatchString(s.name) {
		return s, "", fmt.Errorf("bad metric name %q", s.name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, "", fmt.Errorf("label without =\"")
			}
			l := label{name: rest[:eq]}
			if !labelName.MatchString(l.name) {
				return s, "", fmt.Errorf("bad label name %q", l.name)
			}
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest) && !closed; j++ {
				switch c := rest[j]; c {
				case '"':
					rest, closed = rest[j+1:], true
				case '\\':
					j++
					if j == len(rest) {
						return s, "", fmt.Errorf("label %s ends in a backslash", l.name)
					}
					switch rest[j] {
					case '\\', '"':
						val.WriteByte(rest[j])
					case 'n':
						val.WriteByte('\n')
					default:
						return s, "", fmt.Errorf("label %s uses the escape \\%c, which the format does not define", l.name, rest[j])
					}
				default:
					val.WriteByte(c)
				}
			}
			if !closed {
				return s, "", fmt.Errorf("label %s is not closed", l.name)
			}
			l.value = val.String()
			for _, prev := range s.labels {
				if prev.name == l.name {
					return s, "", fmt.Errorf("label %s twice", l.name)
				}
			}
			s.labels = append(s.labels, l)
			rest = strings.TrimPrefix(rest, ",")
		}
	}
	id := line[:len(line)-len(rest)]
	if !strings.HasPrefix(rest, " ") {
		return s, "", fmt.Errorf("no space before the value")
	}
	v, err := strconv.ParseFloat(rest[1:], 64)
	if err != nil {
		return s, "", fmt.Errorf("bad value %q (timestamps are not written by gridbw)", rest[1:])
	}
	s.value = v
	return s, id, nil
}

// canonical is a series identity that does not depend on label order.
func canonical(s sample) string { return s.name + "|" + without(s.labels, "") }

// without renders the labels, sorted, leaving one name out.
func without(labels []label, drop string) string {
	var parts []string
	for _, l := range labels {
		if l.name != drop {
			parts = append(parts, l.name+"="+strconv.Quote(l.value))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func value(labels []label, name string) (string, bool) {
	for _, l := range labels {
		if l.name == name {
			return l.value, true
		}
	}
	return "", false
}

// checkSummary wants _sum and _count beside every label set that carries
// quantiles.
func checkSummary(name string, samples []sample) error {
	quantiles, sums, counts := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, s := range samples {
		_, isQ := value(s.labels, "quantile")
		switch {
		case s.name == name && isQ:
			quantiles[without(s.labels, "quantile")] = true
		case s.name == name+"_sum":
			sums[without(s.labels, "")] = true
		case s.name == name+"_count":
			counts[without(s.labels, "")] = true
		default:
			return fmt.Errorf("summary %s has a sample without a quantile: %s", name, canonical(s))
		}
	}
	for set := range quantiles {
		if !sums[set] || !counts[set] {
			return fmt.Errorf("summary %s{%s} lacks its _sum or _count", name, set)
		}
	}
	return nil
}

// checkHistogram wants, per label set, le buckets in rising order with
// rising counts, the last one +Inf and equal to _count, and a _sum.
func checkHistogram(name string, samples []sample) error {
	type series struct {
		lastLE, lastN, count float64
		buckets              int
		sum, counted         bool
	}
	sets := map[string]*series{}
	at := func(set string) *series {
		if sets[set] == nil {
			sets[set] = &series{}
		}
		return sets[set]
	}
	for _, s := range samples {
		switch s.name {
		case name + "_bucket":
			raw, ok := value(s.labels, "le")
			le, err := strconv.ParseFloat(raw, 64)
			if !ok || err != nil {
				return fmt.Errorf("histogram %s has a bucket without a numeric le: %s", name, canonical(s))
			}
			h := at(without(s.labels, "le"))
			if h.buckets > 0 && (le <= h.lastLE || s.value < h.lastN) {
				return fmt.Errorf("histogram %s: bucket le=%q is not cumulative", name, raw)
			}
			h.lastLE, h.lastN = le, s.value
			h.buckets++
		case name + "_sum":
			at(without(s.labels, "")).sum = true
		case name + "_count":
			h := at(without(s.labels, ""))
			h.counted, h.count = true, s.value
		default:
			return fmt.Errorf("histogram %s has a stray sample: %s", name, canonical(s))
		}
	}
	for set, h := range sets {
		switch {
		case h.buckets == 0 || !math.IsInf(h.lastLE, 1):
			return fmt.Errorf("histogram %s{%s} does not end in le=\"+Inf\"", name, set)
		case !h.sum || !h.counted:
			return fmt.Errorf("histogram %s{%s} lacks its _sum or _count", name, set)
		case h.count != h.lastN:
			return fmt.Errorf("histogram %s{%s}: +Inf bucket %g is not _count %g", name, set, h.lastN, h.count)
		}
	}
	return nil
}
