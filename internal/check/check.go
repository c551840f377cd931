// Package check is the client-history invariant checker for chaos runs.
// While a fault schedule batters a replication group, every operation a
// client observes — submissions with their ack and durability outcome,
// cancels, the epochs servers report — is recorded as an Op. After the
// dust settles, Verify replays the recorded history against the
// surviving node's WAL-derived event log and the platform's capacities,
// and reports every violated guarantee:
//
//  1. durable-ack survival: an admission acked "replicated" must appear
//     as an accept in the survivor's history — a durable ack that a
//     promotion loses is the one lie the quorum design promises never
//     to tell;
//  2. idempotency: all accepted submissions sharing an idempotency key
//     must resolve to the same reservation ID, in what clients saw and in
//     the survivor's history (its accepts carry their keys), and no
//     reservation ID is accepted twice in the survivor's history;
//  3. fencing: the epoch a node reports never decreases over the ops
//     recorded against it, in observation order;
//  4. capacity: the accepted grants in the survivor's history, clipped
//     by their cancel/expire events, never oversubscribe any ingress or
//     egress point beyond its configured capacity.
//
// The checker is deliberately a passive observer — it holds no locks in
// the system under test and sees only what real clients saw, so a pass
// means the guarantees held at the wire, not merely in some internal
// accounting.
package check

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"gridbw/internal/trace"
)

// Op kinds recorded by clients.
const (
	OpSubmit = "submit"
	OpCancel = "cancel"
	OpStatus = "status"
)

// Op is one client-observed operation against one node.
type Op struct {
	// Node names the endpoint the client talked to (free-form label).
	Node string `json:"node"`
	// Kind is OpSubmit, OpCancel or OpStatus.
	Kind string `json:"kind"`
	// Key is the submission's idempotency key, when one was sent.
	Key string `json:"key,omitempty"`
	// ID is the reservation ID the server answered with (accepted
	// submissions, cancels, status probes).
	ID int `json:"id,omitempty"`
	// Accepted is the admission verdict the client saw.
	Accepted bool `json:"accepted,omitempty"`
	// Durable marks a submission that requested sync-ack durability;
	// Durability is the outcome the server reported ("replicated",
	// "degraded" or empty).
	Durable    bool   `json:"durable,omitempty"`
	Durability string `json:"durability,omitempty"`
	// Err is the transport or server error string for failed ops. A
	// failed op asserts nothing — the request may or may not have
	// landed — but is kept for the record.
	Err string `json:"err,omitempty"`
	// Epoch is the fencing epoch the node reported with this response
	// (0 = not observed).
	Epoch uint64 `json:"epoch,omitempty"`
	// Routed is the routing marker the server answered with
	// ("cross_shard" when a router tier committed the admission through
	// the two-phase hold protocol; empty for direct decisions).
	Routed string `json:"routed,omitempty"`
	// Ingress/Egress/VolumeB echo the submission, and RateBps/SigmaS/
	// TauS the grant, for cross-checking against history.
	Ingress int     `json:"ingress,omitempty"`
	Egress  int     `json:"egress,omitempty"`
	VolumeB float64 `json:"volume_bytes,omitempty"`
	RateBps float64 `json:"rate_bps,omitempty"`
	SigmaS  float64 `json:"sigma_s,omitempty"`
	TauS    float64 `json:"tau_s,omitempty"`
}

// Recorder accumulates client-observed ops, preserving per-recorder
// insertion order (the order the client observed responses). Safe for
// concurrent use.
//
// A load run records every exchange it makes, so the history is the
// harness's largest live allocation. It is therefore kept packed — the
// fields that repeat from op to op are interned as one shape index — and in
// fixed-size chunks, so growing it never copies what is already recorded.
type Recorder struct {
	mu     sync.Mutex
	n      int
	chunks [][]packedOp // every chunk but the last is full
	shapes []opShape
	shape  map[opShape]uint32
}

// recorderChunkOps sizes one chunk: 4096 packed ops are 320 KiB.
const recorderChunkOps = 4096

// opShape is the part of an Op that takes few distinct values over a run:
// who was asked, what, and how it went.
type opShape struct {
	node, kind, durability, routed, err string
	epoch                               uint64
	accepted, durable                   bool
}

// packedOp is the per-op remainder, 80 bytes against Op's 168.
type packedOp struct {
	key                            string
	id, ingress, egress            int
	volumeB, rateBps, sigmaS, tauS float64
	shape                          uint32
}

// NewRecorder returns an empty recorder, its first chunk in place so the
// first recorded op does not stall the others behind an allocation.
func NewRecorder() *Recorder {
	return &Recorder{
		chunks: [][]packedOp{make([]packedOp, 0, recorderChunkOps)},
		shape:  make(map[opShape]uint32),
	}
}

// Record appends one observed op.
func (r *Recorder) Record(op Op) {
	sh := opShape{
		node: op.Node, kind: op.Kind, durability: op.Durability, routed: op.Routed, err: op.Err,
		epoch: op.Epoch, accepted: op.Accepted, durable: op.Durable,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.shape[sh]
	if !ok {
		idx = uint32(len(r.shapes))
		r.shapes = append(r.shapes, sh)
		r.shape[sh] = idx
	}
	if r.n == len(r.chunks)*recorderChunkOps {
		r.chunks = append(r.chunks, make([]packedOp, 0, recorderChunkOps))
	}
	last := &r.chunks[len(r.chunks)-1]
	*last = append(*last, packedOp{
		key: op.Key, id: op.ID, ingress: op.Ingress, egress: op.Egress,
		volumeB: op.VolumeB, rateBps: op.RateBps, sigmaS: op.SigmaS, tauS: op.TauS,
		shape: idx,
	})
	r.n++
}

// each calls fn with every recorded op in observation order. Recorded ops
// and shapes are never rewritten, so it walks a view taken under the lock
// without holding it.
func (r *Recorder) each(fn func(Op) error) error {
	r.mu.Lock()
	chunks := append([][]packedOp(nil), r.chunks...)
	shapes := r.shapes
	r.mu.Unlock()
	for _, chunk := range chunks {
		for _, p := range chunk {
			sh := shapes[p.shape]
			if err := fn(Op{
				Node: sh.node, Kind: sh.kind, Key: p.key, ID: p.id,
				Accepted: sh.accepted, Durable: sh.durable, Durability: sh.durability,
				Err: sh.err, Epoch: sh.epoch, Routed: sh.routed,
				Ingress: p.ingress, Egress: p.egress,
				VolumeB: p.volumeB, RateBps: p.rateBps, SigmaS: p.sigmaS, TauS: p.tauS,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Ops returns a copy of the recorded history in observation order.
func (r *Recorder) Ops() []Op {
	out := make([]Op, 0, r.Len())
	r.each(func(op Op) error {
		out = append(out, op)
		return nil
	})
	return out
}

// Len reports how many ops are recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// WriteJSONL streams the history as JSON Lines, one op per line, so a
// harness process can hand it to an out-of-process checker.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	return r.each(func(op Op) error {
		if err := enc.Encode(op); err != nil {
			return fmt.Errorf("check: write op: %w", err)
		}
		return nil
	})
}

// ReadJSONL parses a JSON Lines op history, skipping blank lines.
func ReadJSONL(rd io.Reader) ([]Op, error) {
	var out []Op
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var op Op
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			return nil, fmt.Errorf("check: line %d: %w", line, err)
		}
		out = append(out, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("check: read ops: %w", err)
	}
	return out, nil
}

// Final is the post-chaos ground truth: the surviving node's full event
// history (WAL replay order) and the platform's capacities in base
// bytes/s, indexed by point ID.
type Final struct {
	Events     []trace.Event
	IngressBps []float64
	EgressBps  []float64
}

// Violation is one broken guarantee.
type Violation struct {
	// Invariant names the broken guarantee: "durable-loss",
	// "idempotency", "fencing" or "capacity".
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// CapacityEps is the relative slack allowed on capacity sums, absorbing
// float accumulation over many grants.
const CapacityEps = 1e-6

// Verify checks the recorded client history against the survivor's
// ground truth and returns every violation found (empty = all
// guarantees held).
func Verify(ops []Op, fin Final) []Violation {
	var out []Violation
	out = append(out, checkDurableLoss(ops, fin)...)
	out = append(out, checkIdempotency(ops, fin)...)
	out = append(out, checkFencing(ops)...)
	out = append(out, checkCapacity(fin)...)
	return out
}

// checkDurableLoss: every submission acked replicated must survive as an
// accept event; its grant must match what the client was told.
func checkDurableLoss(ops []Op, fin Final) []Violation {
	accepted := make(map[int]trace.Event)
	for _, ev := range fin.Events {
		if ev.Kind == trace.EventAccept {
			accepted[ev.Request] = ev
		}
	}
	var out []Violation
	for _, op := range ops {
		if op.Kind != OpSubmit || !op.Accepted || op.Durability != "replicated" {
			continue
		}
		ev, ok := accepted[op.ID]
		if !ok {
			out = append(out, Violation{"durable-loss", fmt.Sprintf(
				"reservation %d (key %q, node %s) was acked replicated but has no accept event in the survivor's history",
				op.ID, op.Key, op.Node)})
			continue
		}
		if op.RateBps > 0 && !closeEnough(ev.RateBps, op.RateBps) {
			out = append(out, Violation{"durable-loss", fmt.Sprintf(
				"reservation %d survived with rate %g, client was acked %g",
				op.ID, ev.RateBps, op.RateBps)})
		}
	}
	return out
}

// checkIdempotency: one key, one reservation — and one reservation, one
// accept.
func checkIdempotency(ops []Op, fin Final) []Violation {
	var out []Violation
	byKey := make(map[string]int)
	for _, op := range ops {
		if op.Kind != OpSubmit || !op.Accepted || op.Key == "" {
			continue
		}
		if prev, seen := byKey[op.Key]; seen {
			if prev != op.ID {
				out = append(out, Violation{"idempotency", fmt.Sprintf(
					"key %q admitted twice: reservations %d and %d", op.Key, prev, op.ID)})
			}
			continue
		}
		byKey[op.Key] = op.ID
	}
	seen := make(map[int]bool)
	accepted := make(map[string]int) // key -> first reservation accepted under it
	for _, ev := range fin.Events {
		if ev.Kind != trace.EventAccept {
			continue
		}
		if seen[ev.Request] {
			out = append(out, Violation{"idempotency", fmt.Sprintf(
				"reservation %d accepted twice in the survivor's history", ev.Request)})
		}
		seen[ev.Request] = true
		if ev.Key == "" {
			continue
		}
		if prev, dup := accepted[ev.Key]; !dup {
			accepted[ev.Key] = ev.Request
		} else if prev != ev.Request {
			out = append(out, Violation{"idempotency", fmt.Sprintf(
				"key %q accepted twice in the survivor's history: reservations %d and %d", ev.Key, prev, ev.Request)})
		}
	}
	return out
}

// checkFencing: per node, in observation order, reported epochs never
// decrease.
func checkFencing(ops []Op) []Violation {
	var out []Violation
	last := make(map[string]uint64)
	for _, op := range ops {
		if op.Epoch == 0 {
			continue
		}
		if prev := last[op.Node]; op.Epoch < prev {
			out = append(out, Violation{"fencing", fmt.Sprintf(
				"node %s reported epoch %d after %d", op.Node, op.Epoch, prev)})
		}
		if op.Epoch > last[op.Node] {
			last[op.Node] = op.Epoch
		}
	}
	return out
}

// checkCapacity replays the survivor's accepts as [sigma, tau) bandwidth
// intervals — each clipped at the first cancel/expire event for its
// reservation — and sums them at every interval breakpoint per point.
// The admission ledger promised equation (1); this re-derives it from
// nothing but the audit history.
func checkCapacity(fin Final) []Violation {
	type interval struct {
		point int
		from  float64
		to    float64
		rate  float64
	}
	ends := make(map[int]float64)
	for _, ev := range fin.Events {
		if ev.Kind == trace.EventCancel || ev.Kind == trace.EventExpire {
			if _, dup := ends[ev.Request]; !dup {
				ends[ev.Request] = ev.At
			}
		}
	}
	var in, eg []interval
	for _, ev := range fin.Events {
		if ev.Kind != trace.EventAccept || ev.RateBps <= 0 {
			continue
		}
		to := ev.TauS
		if end, ok := ends[ev.Request]; ok && end < to {
			to = end
		}
		if to <= ev.SigmaS {
			continue
		}
		in = append(in, interval{ev.Ingress, ev.SigmaS, to, ev.RateBps})
		eg = append(eg, interval{ev.Egress, ev.SigmaS, to, ev.RateBps})
	}

	var out []Violation
	sweep := func(dir string, ivs []interval, caps []float64) {
		byPoint := make(map[int][]interval)
		for _, iv := range ivs {
			byPoint[iv.point] = append(byPoint[iv.point], iv)
		}
		for point, list := range byPoint {
			if point < 0 {
				// Synthetic one-sided events (cross-shard holds) book only
				// the side this shard owns; the other index is -1.
				continue
			}
			if point >= len(caps) {
				out = append(out, Violation{"capacity", fmt.Sprintf(
					"%s point %d out of range (platform has %d)", dir, point, len(caps))})
				continue
			}
			cap := caps[point]
			var ts []float64
			for _, iv := range list {
				ts = append(ts, iv.from)
			}
			sort.Float64s(ts)
			for _, t := range ts {
				var sum float64
				for _, iv := range list {
					if iv.from <= t && t < iv.to {
						sum += iv.rate
					}
				}
				if sum > cap*(1+CapacityEps) {
					out = append(out, Violation{"capacity", fmt.Sprintf(
						"%s point %d oversubscribed at t=%gs: %g bps booked against capacity %g",
						dir, point, t, sum, cap)})
					break
				}
			}
		}
	}
	sweep("ingress", in, fin.IngressBps)
	sweep("egress", eg, fin.EgressBps)
	return out
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= m*1e-9
}
