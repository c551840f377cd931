package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. The traced pass drives
// one client in a closed loop, so the trace ID is the op ordinal and a
// span's parent is whatever span of the same op contains it in time.
type span struct {
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Op     int32  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: no containing span
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory; nothing is written until the pass ends.
type tracer struct {
	epoch time.Time
	curOp atomic.Int32
	// on gates recording: the pass switches it on after warm-up.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	t.curOp.Store(-1)
	return t
}

func (t *tracer) add(name, node string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s := span{
		Name: name, Node: node, Op: t.curOp.Load(),
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// finish assigns IDs and parents and returns the spans grouped by op, each
// group sorted by (start, longest first).
func (t *tracer) finish() map[int32][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := make(map[int32][]span)
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	id := 0
	for op, list := range byOp {
		assignParents(list, id)
		id += len(list)
		byOp[op] = list
	}
	return byOp
}

// assignParents sorts one op's spans by start (longer first on ties) and
// sets each span's parent to the innermost earlier span that contains it.
// Overlapping siblings — the router's concurrent shard trips — do not
// contain each other, so they share the parent that contains both.
func assignParents(list []span, firstID int) {
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].Start != list[j].Start {
			return list[i].Start < list[j].Start
		}
		return list[i].End > list[j].End
	})
	var stack []int
	for i := range list {
		list[i].ID = firstID + i
		list[i].Parent = -1
		for len(stack) > 0 {
			top := list[stack[len(stack)-1]]
			if top.Start <= list[i].Start && list[i].End <= top.End {
				list[i].Parent = top.ID
				break
			}
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// covered is the length of the union of the children's intervals clipped
// to [start, end].
func covered(start, end int64, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64
	hi = start
	for _, v := range ivs {
		if v.b <= hi {
			continue
		}
		if v.a < hi {
			v.a = hi
		}
		total += v.b - v.a
		hi = v.b
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// writeSpans dumps every span as JSON lines.
func writeSpans(path string, byOp map[int32][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	ops := make([]int32, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		for _, s := range byOp[op] {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
