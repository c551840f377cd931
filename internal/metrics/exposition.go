package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// ContentType is what every gridbw text page answers a scrape with.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Exposition writes one page of the Prometheus text exposition format
// 0.0.4, and is the only code in the tree that knows how that format is
// spelled. It knows nothing of what a process exports: gridbwd, gridbwrouter
// and gridbwload each open their families in page order and set the samples.
// A family is opened by Counter, Gauge, Summary or Histogram, and every
// sample written until the next one is opened belongs to it, so a family's
// lines cannot be interleaved with another's. Write errors are dropped: the
// page goes to a scraper that has gone away or to a buffer.
type Exposition struct {
	w    io.Writer
	name string // the open family
	line []byte
}

// NewExposition starts a page on w.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w} }

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	// ladder is the one set of percentiles a latency summary carries.
	ladder = [...]float64{0.5, 0.9, 0.95, 0.99, 0.999}
)

func (e *Exposition) family(name, typ, help string) *Exposition {
	e.name = name
	fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, typ)
	return e
}

// Counter opens a family whose samples only ever grow; its name ends in _total.
func (e *Exposition) Counter(name, help string) *Exposition { return e.family(name, "counter", help) }

// Gauge opens a family whose samples go up and down.
func (e *Exposition) Gauge(name, help string) *Exposition { return e.family(name, "gauge", help) }

// Summary opens a family of latency summaries, written by Latency.
func (e *Exposition) Summary(name, help string) *Exposition { return e.family(name, "summary", help) }

// Histogram opens a family of le-bucketed histograms, written by Buckets.
func (e *Exposition) Histogram(name, help string) *Exposition {
	return e.family(name, "histogram", help)
}

// Set writes one sample of the open family. v is an integer of any kind
// (printed exactly), a float64, or a bool (1 or 0); labels are name, value
// pairs, the values escaped as the format defines whatever they contain.
func (e *Exposition) Set(v any, labels ...string) { e.sample("", v, labels) }

func (e *Exposition) sample(suffix string, v any, labels []string) {
	b := append(append(e.line[:0], e.name...), suffix...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(append(append(b, sep), labels[i]...), '=', '"')
		b = append(append(b, labelEscaper.Replace(strings.ToValidUTF8(labels[i+1], "\uFFFD"))...), '"')
		sep = ','
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	b = append(b, ' ')
	switch v := v.(type) {
	case bool:
		if v {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	case float64:
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	default:
		b = fmt.Append(b, v)
	}
	e.line = append(b, '\n')
	e.w.Write(e.line)
}

// Latency writes one series of the open Summary from h, in seconds: the
// quantile ladder, then _sum and _count.
func (e *Exposition) Latency(h *Histogram, labels ...string) {
	n := len(labels)
	for _, q := range ladder {
		e.sample("", h.Quantile(q).Seconds(), append(labels[:n:n], "quantile", strconv.FormatFloat(q, 'g', -1, 64)))
	}
	e.sample("_sum", h.Sum().Seconds(), labels)
	e.sample("_count", h.Count(), labels)
}

// Buckets writes one series of the open Histogram from h: a cumulative
// bucket per upper bound, in seconds, then +Inf, _sum and _count.
func (e *Exposition) Buckets(h *Histogram, bounds []time.Duration, labels ...string) {
	n := len(labels)
	for _, le := range bounds {
		e.sample("_bucket", h.CumulativeLE(le), append(labels[:n:n], "le", strconv.FormatFloat(le.Seconds(), 'g', -1, 64)))
	}
	count := h.Count()
	e.sample("_bucket", count, append(labels[:n:n], "le", "+Inf"))
	e.sample("_sum", h.Sum().Seconds(), labels)
	e.sample("_count", count, labels)
}
