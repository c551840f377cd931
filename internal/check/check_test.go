package check

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"gridbw/internal/trace"
)

func accept(id int, in, eg int, rate, sigma, tau float64) trace.Event {
	return trace.Event{At: sigma, Kind: trace.EventAccept, Request: id,
		Ingress: in, Egress: eg, RateBps: rate, SigmaS: sigma, TauS: tau}
}

func has(t *testing.T, vs []Violation, invariant string) {
	t.Helper()
	for _, v := range vs {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("expected a %q violation, got %v", invariant, vs)
}

func hasNone(t *testing.T, vs []Violation, invariant string) {
	t.Helper()
	for _, v := range vs {
		if v.Invariant == invariant {
			t.Fatalf("unexpected %q violation: %v", invariant, v)
		}
	}
}

func TestCleanHistoryPasses(t *testing.T) {
	ops := []Op{
		{Node: "a", Kind: OpSubmit, Key: "k1", ID: 0, Accepted: true,
			Durable: true, Durability: "replicated", Epoch: 1, RateBps: 100},
		{Node: "a", Kind: OpSubmit, Key: "k1", ID: 0, Accepted: true, Epoch: 1},
		{Node: "a", Kind: OpSubmit, Key: "k2", ID: 1, Accepted: true, Epoch: 1},
		{Node: "b", Kind: OpStatus, Epoch: 2},
	}
	fin := Final{
		Events: []trace.Event{
			accept(0, 0, 0, 100, 0, 10),
			accept(1, 0, 0, 100, 0, 10),
		},
		IngressBps: []float64{200},
		EgressBps:  []float64{200},
	}
	if vs := Verify(ops, fin); len(vs) != 0 {
		t.Fatalf("clean history flagged: %v", vs)
	}
}

func TestDurableLossDetected(t *testing.T) {
	ops := []Op{{Node: "a", Kind: OpSubmit, Key: "k", ID: 7, Accepted: true,
		Durable: true, Durability: "replicated"}}
	// Survivor has no accept for 7.
	vs := Verify(ops, Final{IngressBps: []float64{1}, EgressBps: []float64{1}})
	has(t, vs, "durable-loss")

	// A degraded ack asserts nothing: losing it is allowed.
	ops[0].Durability = "degraded"
	vs = Verify(ops, Final{IngressBps: []float64{1}, EgressBps: []float64{1}})
	hasNone(t, vs, "durable-loss")
}

func TestDurableGrantMismatchDetected(t *testing.T) {
	ops := []Op{{Node: "a", Kind: OpSubmit, ID: 3, Accepted: true,
		Durability: "replicated", RateBps: 100}}
	fin := Final{
		Events:     []trace.Event{accept(3, 0, 0, 50, 0, 10)},
		IngressBps: []float64{1000}, EgressBps: []float64{1000},
	}
	has(t, Verify(ops, fin), "durable-loss")
}

func TestIdempotencyViolations(t *testing.T) {
	ops := []Op{
		{Node: "a", Kind: OpSubmit, Key: "dup", ID: 1, Accepted: true},
		{Node: "b", Kind: OpSubmit, Key: "dup", ID: 2, Accepted: true},
	}
	has(t, Verify(ops, Final{IngressBps: []float64{1}, EgressBps: []float64{1}}), "idempotency")

	// Double accept of one reservation ID in the survivor's history.
	fin := Final{
		Events:     []trace.Event{accept(5, 0, 0, 1, 0, 1), accept(5, 0, 0, 1, 2, 3)},
		IngressBps: []float64{10}, EgressBps: []float64{10},
	}
	has(t, Verify(nil, fin), "idempotency")
}

// TestKeyAcceptedTwiceInHistory: a survivor that lost a key admits its
// re-send a second time. The client may have seen only the survivor's
// answer, so its ops show one ID; the survivor's own events name the key on
// both accepts, and that is flagged.
func TestKeyAcceptedTwiceInHistory(t *testing.T) {
	keyed := func(id int, key string) trace.Event {
		ev := accept(id, 0, 0, 1, 0, 1)
		ev.Key = key
		return ev
	}
	ops := []Op{{Node: "b", Kind: OpSubmit, Key: "k", ID: 1, Accepted: true}}
	fin := Final{
		Events:     []trace.Event{keyed(0, "k"), keyed(1, "k"), keyed(2, "other")},
		IngressBps: []float64{10}, EgressBps: []float64{10},
	}
	vs := Verify(ops, fin)
	has(t, vs, "idempotency")
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, `key "k"`) {
		t.Fatalf("violations %v, want the one for key k", vs)
	}

	// One key, one accept: the same history without the duplicate is clean.
	fin.Events = []trace.Event{keyed(0, "k"), keyed(2, "other")}
	ops[0].ID = 0
	hasNone(t, Verify(ops, fin), "idempotency")
}

func TestFencingMonotonic(t *testing.T) {
	ops := []Op{
		{Node: "a", Kind: OpStatus, Epoch: 2},
		{Node: "a", Kind: OpStatus, Epoch: 1},
	}
	has(t, Verify(ops, Final{}), "fencing")

	// Different nodes may legitimately report different epochs.
	ops = []Op{
		{Node: "a", Kind: OpStatus, Epoch: 2},
		{Node: "b", Kind: OpStatus, Epoch: 1},
		{Node: "a", Kind: OpStatus, Epoch: 2},
	}
	if vs := Verify(ops, Final{}); len(vs) != 0 {
		t.Fatalf("cross-node epochs flagged: %v", vs)
	}
}

func TestCapacityOversubscription(t *testing.T) {
	// Two 60-unit grants overlap on a 100-unit point.
	fin := Final{
		Events: []trace.Event{
			accept(0, 0, 0, 60, 0, 10),
			accept(1, 0, 0, 60, 5, 15),
		},
		IngressBps: []float64{100},
		EgressBps:  []float64{200},
	}
	vs := Verify(nil, fin)
	has(t, vs, "capacity")
	for _, v := range vs {
		if v.Invariant == "capacity" && !strings.Contains(v.Detail, "ingress") {
			t.Fatalf("expected the ingress point flagged: %v", v)
		}
	}

	// A cancel at t=5 frees the first grant before the second starts.
	fin.Events = append(fin.Events[:1],
		trace.Event{At: 5, Kind: trace.EventCancel, Request: 0},
		accept(1, 0, 0, 60, 5, 15))
	if vs := Verify(nil, fin); len(vs) != 0 {
		t.Fatalf("cancel-clipped history flagged: %v", vs)
	}
}

func TestCapacityPointOutOfRange(t *testing.T) {
	fin := Final{
		Events:     []trace.Event{accept(0, 3, 0, 1, 0, 1)},
		IngressBps: []float64{10}, EgressBps: []float64{10},
	}
	has(t, Verify(nil, fin), "capacity")
}

func TestRecorderConcurrentAndJSONLRoundTrip(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Record(Op{Node: "a", Kind: OpSubmit, ID: g*50 + i})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 400 {
		t.Fatalf("recorded %d ops, want 400", r.Len())
	}

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	ops, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(ops) != 400 {
		t.Fatalf("round trip lost ops: %d", len(ops))
	}

	if _, err := ReadJSONL(strings.NewReader("{bad json\n")); err == nil {
		t.Fatal("malformed JSONL accepted")
	}
}

// The recorder stores ops packed; what it hands back must equal what was
// recorded in every field, across chunk boundaries, for values at the
// edges of each field's type and for more distinct strings than a byte
// could index — through Ops and through the JSONL export alike.
func TestRecorderReturnsEveryFieldAsRecorded(t *testing.T) {
	if got, whole := unsafe.Sizeof(packedOp{}), unsafe.Sizeof(Op{}); got != 80 || whole != 168 {
		t.Errorf("packed op is %d bytes and Op %d; the Recorder comment says 80 and 168", got, whole)
	}
	n := 2*recorderChunkOps + 37
	want := make([]Op, n)
	for i := range want {
		op := Op{
			Node: fmt.Sprintf("node-%d", i%300), Kind: []string{OpSubmit, OpCancel, OpStatus}[i%3],
			Key: fmt.Sprintf("key-%d", i), ID: i - 5,
			Accepted: i%2 == 0, Durable: i%3 == 0,
			Durability: []string{"", "replicated", "degraded"}[i%3],
			Err:        fmt.Sprintf("dial tcp 127.0.0.1:%d: connection refused", 40000+i%700),
			Epoch:      uint64(i % 5), Routed: []string{"", "cross_shard"}[i%2],
			Ingress: i % 11, Egress: i % 13,
			VolumeB: float64(i) * 1e9, RateBps: 1e8 / float64(i+1), SigmaS: float64(i) / 7, TauS: float64(i) + 0.5,
		}
		switch i {
		case 0:
			op = Op{} // every field zero
		case 1:
			op.ID, op.Ingress, op.Egress, op.Epoch = math.MaxInt, math.MinInt, math.MaxInt, math.MaxUint64
		}
		want[i] = op
	}
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ { // readers race the writer; run under -race
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r.Len() < n {
				ops := r.Ops()
				if len(ops) > 0 && !reflect.DeepEqual(ops[len(ops)-1], want[len(ops)-1]) {
					t.Errorf("mid-run Ops()[%d] = %+v, want %+v", len(ops)-1, ops[len(ops)-1], want[len(ops)-1])
					return
				}
			}
		}()
	}
	for _, op := range want {
		r.Record(op)
	}
	wg.Wait()

	if got := r.Ops(); !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("Ops()[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("Ops() returned %d ops, want %d", len(got), len(want))
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSONL round trip differs from the recorded history (%d ops, want %d)", len(got), len(want))
	}
}
