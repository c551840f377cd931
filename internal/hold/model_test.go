package hold

// An explicit-state model checker for the hold step over both owners of one
// cross-point pair. It runs breadth-first over every interleaving of:
//
//   - two real Tables, the ingress and the egress owner, each changed only
//     through the step under test, and a ledger counting bookings and
//     releases per side;
//   - a coordinator modelled on router.crossShard's rule: RESERVE the
//     ingress, then the egress, then CONFIRM both, and ABORT both on any
//     refusal, any CONFIRM that does not commit, and any call it gives up
//     on (a wave's deadline: the call may have landed all the same). A
//     client retry runs the protocol again under the same key. crossShard
//     aborts both sides on a failed wave too: sparing the egress of a failed
//     wave-1 call turns a retry of an acknowledged pair into a one-sided
//     cancel (DESIGN §11, router.TestRetryTimeoutAbortsBothSides);
//   - a channel that drops, duplicates and reorders, with the coordinator
//     re-sending a message whose every copy and answer are gone, as
//     distributed.send does;
//   - the timers each step's result arms: a side's TTL, which fires at any
//     moment, and τ, which fires for both sides at once between runs (a
//     grant outlives its handshake);
//   - other pairs each owner resolves, each one tombstone in its retention
//     queue.
//
// States are hashed, so the search stops once every reachable state within
// the bounds of modelBounds is expanded. The invariants:
//
//   - at most one booking per key per side;
//   - every booking released exactly once: never more, and at quiescence
//     every one;
//   - both or neither: when the coordinator acknowledges the pair, the two
//     sides book it or neither does, and at quiescence neither side is
//     Confirmed while the other is Aborted;
//   - a tombstone refuses every later RESERVE: once a side has answered an
//     ABORT of the key, it never answers a RESERVE of it held.
//
// A violation comes back with the shortest trace that reaches it.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gridbw/internal/topology"
	"gridbw/internal/trace"
	"gridbw/internal/units"
)

const pairKey = "k"

type side uint8

const (
	ingress side = iota
	egress
)

var sideNames = [2]string{"in", "eg"}

// modelBounds bounds one search and picks the step it checks.
type modelBounds struct {
	// faults is how many channel faults a path may contain: a drop or a
	// duplicate costs one. A dropped message or answer is re-sent, so at
	// most 6 copies a run plus faults travel.
	faults int
	// runs is how often the coordinator runs the protocol under the key:
	// 1, plus client retries.
	runs int
	// others is how many other pairs each owner resolves.
	others [2]int
	// retention is each table's.
	retention int
	step      func(*Table, Msg) (Result, error)
}

// packet is a request from the coordinator to an owner, or that owner's
// answer.
type packet struct {
	answered bool
	side     side
	kind     Kind // Reserve, Confirm or Abort
	run      uint8
	answer   Answer
}

func (m packet) code() uint32 {
	b := uint32(0)
	if m.answered {
		b = 1
	}
	return b<<24 | uint32(m.side)<<20 | uint32(m.kind)<<16 | uint32(m.run)<<8 | uint32(m.answer)
}

var kindNames = map[Kind]string{Reserve: "RESERVE", Confirm: "CONFIRM", Abort: "ABORT", Lapse: "TTL", Release: "τ"}

var answerNames = [...]string{Silent: "-", Granted: "held", Refused: "refused", Committed: "confirmed",
	RolledBack: "aborted", NotFound: "404", Conflict: "409"}

func (m packet) String() string {
	if m.answered {
		return fmt.Sprintf("%s#%d %s→router: %s", kindNames[m.kind], m.run, sideNames[m.side], answerNames[m.answer])
	}
	return fmt.Sprintf("%s#%d router→%s", kindNames[m.kind], m.run, sideNames[m.side])
}

type phase uint8

const (
	idle phase = iota
	reservingIn
	reservingEg
	confirming
	aborting
)

// coordinator is the router's view of the pair: the run it is in, the wave
// it waits on, and which side of that wave answered and committed.
type coordinator struct {
	run       uint8
	phase     phase
	got, good [2]bool
}

// ledger counts what each side booked and released; the model's RESERVE
// check books, the table releases.
type ledger struct {
	booked, released [2]int
}

func (l *ledger) HoldRelease(dir topology.Direction, _ topology.PointID, _, _ units.Time, _ units.Bandwidth, _ units.Time) {
	s := ingress
	if dir == topology.Egress {
		s = egress
	}
	l.released[s]++
}

// world is one state of the model.
type world struct {
	b      *modelBounds
	tables [2]*Table
	led    *ledger
	ch     []packet // in flight, kept sorted: a multiset
	co     coordinator
	armed  [2][Release + 1]bool // [side][the kind the timer delivers]
	faults int
	others [2]int
	// aborted records that a side answered an ABORT of the key.
	aborted   [2]bool
	violation string
	tracing   bool
}

func newWorld(b *modelBounds) *world {
	w := &world{b: b, led: &ledger{}}
	for s := range w.tables {
		w.tables[s] = NewTable(w.led, b.retention)
	}
	return w
}

func (t *Table) clone(rel Releaser) *Table {
	c := NewTable(rel, t.retention)
	for k, e := range t.byKey {
		cp := *e
		c.byKey[k] = &cp
	}
	for id, k := range t.byID {
		c.byID[id] = k
	}
	c.done = slices.Clone(t.done)
	return c
}

func (w *world) clone() *world {
	c := *w
	led := *w.led
	c.led = &led
	c.ch = slices.Clone(w.ch)
	for s := range c.tables {
		c.tables[s] = w.tables[s].clone(c.led)
	}
	return &c
}

// encode is the state's hash key: everything a later step can depend on.
func (w *world) encode(buf []byte) []byte {
	bit := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	for s, t := range w.tables {
		for _, e := range t.All() {
			buf = append(buf, e.Key...)
			buf = append(buf, byte(e.State), bit(e.Booked))
			buf = append(buf, e.Reason...)
			buf = append(buf, 0)
		}
		buf = append(buf, 1)
		for _, k := range t.done {
			buf = append(buf, k...)
			buf = append(buf, 0)
		}
		buf = append(buf, 1, byte(w.led.booked[s]), byte(w.led.released[s]), byte(w.others[s]), bit(w.aborted[s]),
			bit(w.armed[s][Lapse]), bit(w.armed[s][Release]))
	}
	for _, m := range w.ch {
		c := m.code()
		buf = append(buf, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return append(buf, 1, w.co.run, byte(w.co.phase), bit(w.co.got[0]), bit(w.co.got[1]),
		bit(w.co.good[0]), bit(w.co.good[1]), byte(w.faults))
}

func (w *world) send(m packet) {
	i, _ := slices.BinarySearchFunc(w.ch, m, func(a, b packet) int { return int(a.code()) - int(b.code()) })
	w.ch = slices.Insert(w.ch, i, m)
}

// expects is the request of the current wave the coordinator still waits
// for from side s.
func (w *world) expects(s side) (Kind, bool) {
	switch w.co.phase {
	case reservingIn:
		return Reserve, s == ingress
	case reservingEg:
		return Reserve, s == egress
	case confirming:
		return Confirm, !w.co.got[s]
	case aborting:
		return Abort, !w.co.got[s]
	}
	return 0, false
}

type actKind uint8

const (
	deliver   actKind = iota // w.ch[arg]; refuse: the RESERVE's check refuses
	drop                     // w.ch[arg]
	duplicate                // w.ch[arg]
	resend                   // to side arg
	giveUp
	start
	lapse // side arg's TTL
	tau
	other // side arg resolves another pair
)

type action struct {
	kind   actKind
	arg    uint8
	refuse bool
}

// actions lists every step the world can take next.
func (w *world) actions() []action {
	var out []action
	for i, m := range w.ch {
		if i > 0 && m == w.ch[i-1] {
			continue // the same successors as the copy before it
		}
		out = append(out, action{kind: deliver, arg: uint8(i)})
		if _, known := w.tables[m.side].Get(pairKey); !m.answered && m.kind == Reserve && !known {
			out = append(out, action{kind: deliver, arg: uint8(i), refuse: true})
		}
		if w.faults < w.b.faults {
			out = append(out, action{kind: drop, arg: uint8(i)}, action{kind: duplicate, arg: uint8(i)})
		}
	}
	for s := range 2 {
		if k, ok := w.expects(side(s)); ok && !w.inFlight(side(s), k) {
			out = append(out, action{kind: resend, arg: uint8(s)})
		}
	}
	switch {
	case w.co.phase == reservingIn || w.co.phase == reservingEg || w.co.phase == confirming:
		out = append(out, action{kind: giveUp})
	case w.co.phase == idle && int(w.co.run) < w.b.runs:
		out = append(out, action{kind: start})
	}
	for s := range 2 {
		if w.armed[s][Lapse] {
			out = append(out, action{kind: lapse, arg: uint8(s)})
		}
		if w.others[s] < w.b.others[s] {
			out = append(out, action{kind: other, arg: uint8(s)})
		}
	}
	if w.co.phase == idle && (w.armed[ingress][Release] || w.armed[egress][Release]) {
		out = append(out, action{kind: tau})
	}
	return out
}

// inFlight reports whether a copy of the current run's kind request to s,
// or its answer, is still travelling.
func (w *world) inFlight(s side, k Kind) bool {
	for _, m := range w.ch {
		if m.side == s && m.kind == k && m.run == w.co.run {
			return true
		}
	}
	return false
}

// apply takes one action and, when the world traces, says what happened.
func (w *world) apply(a action) string {
	var label string
	if w.tracing {
		label = w.label(a)
	}
	return label + w.act(a)
}

// label names action a, before it is taken.
func (w *world) label(a action) string {
	switch a.kind {
	case deliver:
		return w.ch[a.arg].String()
	case drop:
		return "drop " + w.ch[a.arg].String()
	case duplicate:
		return "duplicate " + w.ch[a.arg].String()
	case resend:
		k, _ := w.expects(side(a.arg))
		return "re-send " + packet{side: side(a.arg), kind: k, run: w.co.run}.String()
	case giveUp:
		return "router gives up on the wave"
	case start:
		return fmt.Sprintf("client submits (run %d)", w.co.run+1)
	case lapse:
		return "TTL fires at " + sideNames[a.arg]
	case tau:
		return "τ passes:"
	}
	return fmt.Sprintf("%s resolves other%d", sideNames[a.arg], w.others[a.arg])
}

// act takes action a and returns what its label leaves unsaid.
func (w *world) act(a action) string {
	switch a.kind {
	case deliver:
		m := w.ch[a.arg]
		w.ch = slices.Delete(w.ch, int(a.arg), int(a.arg)+1)
		if m.answered {
			return w.receive(m)
		}
		return w.serve(m, a.refuse)
	case drop:
		w.ch = slices.Delete(w.ch, int(a.arg), int(a.arg)+1)
		w.faults++
	case duplicate:
		w.send(w.ch[a.arg])
		w.faults++
	case resend:
		k, _ := w.expects(side(a.arg))
		w.send(packet{side: side(a.arg), kind: k, run: w.co.run})
	case giveUp:
		return w.abortBoth()
	case start:
		w.co = coordinator{run: w.co.run + 1, phase: reservingIn}
		w.send(packet{side: ingress, kind: Reserve, run: w.co.run})
	case lapse:
		w.armed[a.arg][Lapse] = false
		return outcome(w.step(side(a.arg), Msg{Kind: Lapse, Key: pairKey}))
	case tau:
		var out string
		for s := range 2 {
			if w.armed[s][Release] {
				w.armed[s][Release] = false
				out += " " + sideNames[s] + outcome(w.step(side(s), Msg{Kind: Release, Key: pairKey}))
			}
		}
		return out
	case other:
		key := "other" + strconv.Itoa(w.others[a.arg])
		w.others[a.arg]++
		w.step(side(a.arg), Msg{Kind: Abort, Key: key, Reason: "other pair"})
	}
	return ""
}

func outcome(res Result) string {
	switch {
	case res.Released:
		return " (released)"
	case res.Log:
		return " (moved)"
	}
	return " (no-op)"
}

// step runs the step under test on side s and arms the timer it names.
func (w *world) step(s side, m Msg) Result {
	res, err := w.b.step(w.tables[s], m)
	if err != nil {
		panic(err)
	}
	if res.Arm != 0 {
		w.armed[s][res.Arm] = true
	}
	return res
}

// serve is side m.side taking request m and answering it.
func (w *world) serve(m packet, refuse bool) string {
	s := m.side
	msg := Msg{Kind: m.kind, Key: pairKey, Reason: "aborted before reserve"}
	if m.kind == Reserve {
		msg.Decide = func() (Entry, error) {
			h := Entry{Side: [2]string{trace.HoldSideIngress, trace.HoldSideEgress}[s], ID: -1, Peer: -1, BW: 1, Tau: 1}
			if refuse {
				h.Reason = "no room"
			} else {
				w.led.booked[s]++
			}
			return h, nil
		}
	}
	res := w.step(s, msg)
	if m.kind == Reserve && res.Answer == Granted && w.aborted[s] {
		w.violate("%s answered a RESERVE held after it answered an ABORT of the key", sideNames[s])
	}
	if m.kind == Abort {
		w.aborted[s] = true
	}
	w.send(packet{answered: true, side: s, kind: m.kind, run: m.run, answer: res.Answer})
	if refuse {
		return " (check refuses)"
	}
	return ""
}

// receive is the coordinator taking answer m.
func (w *world) receive(m packet) string {
	if m.run != w.co.run {
		return " (stale)"
	}
	want, waiting := w.expects(m.side)
	if !waiting || want != m.kind {
		return " (stale)"
	}
	switch w.co.phase {
	case reservingIn, reservingEg:
		if m.answer != Granted {
			return w.abortBoth()
		}
		if w.co.phase == reservingIn {
			w.co.phase = reservingEg
			w.send(packet{side: egress, kind: Reserve, run: w.co.run})
			return ""
		}
		w.co.phase, w.co.got = confirming, [2]bool{}
		w.send(packet{side: ingress, kind: Confirm, run: w.co.run})
		w.send(packet{side: egress, kind: Confirm, run: w.co.run})
		return ""
	case confirming:
		w.co.got[m.side], w.co.good[m.side] = true, m.answer == Committed
		switch {
		case !w.co.got[ingress] || !w.co.got[egress]:
			return ""
		case !w.co.good[ingress] || !w.co.good[egress]:
			return w.abortBoth()
		}
		w.co.phase = idle
		if in, eg := w.booked(ingress), w.booked(egress); in != eg {
			w.violate("the router acknowledged the pair, but in books %v and eg books %v", in, eg)
		}
		return "; router acknowledges the client"
	case aborting:
		w.co.got[m.side] = true
		if w.co.got[ingress] && w.co.got[egress] {
			w.co.phase = idle
			return "; router reports the refusal"
		}
	}
	return ""
}

func (w *world) abortBoth() string {
	w.co.phase, w.co.got = aborting, [2]bool{}
	w.send(packet{side: ingress, kind: Abort, run: w.co.run})
	w.send(packet{side: egress, kind: Abort, run: w.co.run})
	return "; router aborts both sides"
}

func (w *world) booked(s side) bool {
	e, ok := w.tables[s].Get(pairKey)
	return ok && e.Booked
}

func (w *world) violate(format string, args ...any) {
	if w.violation == "" {
		w.violation = fmt.Sprintf(format, args...)
	}
}

// audit checks the invariants that hold in every state, and at quiescence
// (no action left) the ones that hold once everything has settled.
func (w *world) audit() {
	for s := range 2 {
		switch l := w.led; {
		case l.released[s] > l.booked[s]:
			w.violate("%s released %d bookings but booked %d", sideNames[s], l.released[s], l.booked[s])
		case l.booked[s]-l.released[s] > 1:
			w.violate("%s books the key %d times at once", sideNames[s], l.booked[s]-l.released[s])
		}
	}
	if w.violation != "" || len(w.actions()) > 0 {
		return
	}
	for s := range 2 {
		if l := w.led; l.released[s] != l.booked[s] {
			w.violate("at quiescence %s released %d of %d bookings", sideNames[s], l.released[s], l.booked[s])
		}
	}
	in, inOK := w.tables[ingress].Get(pairKey)
	eg, egOK := w.tables[egress].Get(pairKey)
	if inOK && egOK && (in.State == Confirmed) != (eg.State == Confirmed) && (in.State == Aborted || eg.State == Aborted) {
		w.violate("at quiescence in is %v and eg is %v", in.State, eg.State)
	}
}

// modelReport is one search's outcome.
type modelReport struct {
	states    int
	violation string
	trace     []string
}

type modelNode struct {
	parent int32
	act    action
}

// checkModel searches every state reachable within b, breadth first, and
// stops at the first violation, which therefore has a shortest trace.
func checkModel(b modelBounds) modelReport {
	nodes := []modelNode{{parent: -1}}
	seen := map[string]struct{}{string(newWorld(&b).encode(nil)): {}}
	var buf []byte
	for i := 0; i < len(nodes); i++ {
		w := replay(&b, nodes, i, nil)
		for _, a := range w.actions() {
			next := w.clone()
			next.apply(a)
			next.audit()
			if next.violation != "" {
				var trace []string
				replay(&b, append(nodes, modelNode{int32(i), a}), len(nodes), &trace)
				return modelReport{states: len(nodes), violation: next.violation, trace: trace}
			}
			buf = next.encode(buf[:0])
			if _, dup := seen[string(buf)]; dup {
				continue
			}
			seen[string(buf)] = struct{}{}
			nodes = append(nodes, modelNode{int32(i), a})
		}
	}
	return modelReport{states: len(nodes)}
}

// replay rebuilds node i's world from the initial one, and describes each
// action into trace when asked.
func replay(b *modelBounds, nodes []modelNode, i int, trace *[]string) *world {
	var path []action
	for ; nodes[i].parent >= 0; i = int(nodes[i].parent) {
		path = append(path, nodes[i].act)
	}
	w := newWorld(b)
	w.tracing = trace != nil
	for j := len(path) - 1; j >= 0; j-- {
		line := w.apply(path[j])
		if trace != nil {
			*trace = append(*trace, line)
		}
	}
	return w
}

func (r modelReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s after %d states; shortest trace:", r.violation, r.states)
	for i, line := range r.trace {
		fmt.Fprintf(&sb, "\n  %2d. %s", i+1, line)
	}
	return sb.String()
}

// realStep is the step every user of the table runs.
func realStep(t *Table, m Msg) (Result, error) { return t.Step(m) }

// modelDefaults are the bounds CI checks Step at, ample retention in both:
// two channel faults in one run, and one fault over a run and its client
// retry. Each reaches well over 10⁵ states.
func modelDefaults() []modelBounds {
	b := []modelBounds{
		{faults: 2, runs: 1, retention: 64, step: realStep},
		{faults: 1, runs: 2, retention: 64, step: realStep},
	}
	if raceEnabled {
		// The race detector slows the search about tenfold.
		b[0].faults, b[1].faults = 1, 0
	}
	return b
}

// TestModelCheckHoldStep: Step keeps every invariant on every interleaving
// within the default bounds, which are large enough to mean something.
func TestModelCheckHoldStep(t *testing.T) {
	for _, b := range modelDefaults() {
		t.Run(fmt.Sprintf("faults=%d,runs=%d", b.faults, b.runs), func(t *testing.T) {
			start := time.Now()
			r := checkModel(b)
			if r.violation != "" {
				t.Fatal(r)
			}
			t.Logf("%d states explored in %v, no violation", r.states, time.Since(start).Round(time.Millisecond))
			if r.states < 100_000 && !raceEnabled {
				t.Fatalf("only %d states explored; the bounds prove too little", r.states)
			}
		})
	}
}

// TestModelCatchesBrokenSteps: two deliberately broken steps, each a defect
// the table once had or could regain, and each must be caught.
func TestModelCatchesBrokenSteps(t *testing.T) {
	mutants := []struct {
		name string
		step func(*Table, Msg) (Result, error)
	}{
		// The late-RESERVE resurrection tombstones exist to stop: an ABORT
		// that beats its RESERVE leaves nothing for the late copy to find.
		{"abort of an unknown key files no tombstone", func(t *Table, m Msg) (Result, error) {
			if _, ok := t.Get(m.Key); m.Kind == Abort && !ok {
				return Result{Answer: RolledBack}, nil
			}
			return t.Step(m)
		}},
		{"CONFIRM commits an aborted hold", func(t *Table, m Msg) (Result, error) {
			if e, ok := t.Get(m.Key); m.Kind == Confirm && ok && e.State == Aborted {
				e.State = Confirmed
				return Result{Entry: e, Answer: Committed, Arm: e.Waits(), Log: true}, nil
			}
			return t.Step(m)
		}},
	}
	for _, mu := range mutants {
		t.Run(mu.name, func(t *testing.T) {
			b := modelDefaults()[0]
			b.step = mu.step
			r := checkModel(b)
			if r.violation == "" {
				t.Fatalf("no violation in %d states", r.states)
			}
			t.Log(r)
		})
	}
}

// TestModelRetentionBound states ROADMAP 2(i)'s bound with the checker: a
// key's record must outlive every RESERVE of that key that can still reach
// its owner, and retention counts resolutions. A record is evicted once
// retention resolutions are queued after the key's first one, its own later
// ones included, so an owner that resolves that many while a RESERVE is still
// to come has forgotten the key, and the RESERVE books again. Each case finds
// that resurrection one below its bound and nothing at the bound:
//
//   - a late copy: the router gave up on a RESERVE, and the ABORT that filed
//     the tombstone overtook it. The key resolves once on its owner, so the
//     retention must exceed the other pairs the owner resolves meanwhile.
//   - a client retry: the router runs the protocol again under the same key,
//     and each owner answers from its own record. A confirmed key resolves
//     twice on one owner (released at τ, then aborted by the retry's
//     compensating ABORT), so the bound is one higher.
func TestModelRetentionBound(t *testing.T) {
	cases := []struct {
		name   string
		runs   int
		others [2]int
		bound  int
	}{
		{"late copy", 1, [2]int{0, 2}, 3},
		{"client retry, ingress resolves others", 2, [2]int{2, 0}, 4},
		{"client retry, egress resolves others", 2, [2]int{0, 2}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := modelBounds{runs: tc.runs, others: tc.others, retention: tc.bound - 1, step: realStep}
			r := checkModel(b)
			if r.violation == "" {
				t.Fatalf("retention %d, %v other pairs resolved: no violation in %d states", b.retention, tc.others, r.states)
			}
			t.Logf("retention %d, %v other pairs resolved: %v", b.retention, tc.others, r)
			b.retention = tc.bound
			if r := checkModel(b); r.violation != "" {
				t.Fatalf("retention %d: %v", b.retention, r)
			}
		})
	}
}
