package check

import (
	"strings"
	"testing"

	"gridbw/internal/trace"
)

// Two shards, one point pair each, 1 GB/s everywhere. Shard 0 ("a")
// owns the ingress side of the cross-shard pair, shard 1 ("b") the
// egress side.
func twoShards(aEvents, bEvents []trace.Event) []ShardFinal {
	caps := []float64{1e9, 1e9}
	return []ShardFinal{
		{Name: "a", Final: Final{Events: aEvents, IngressBps: caps, EgressBps: caps}},
		{Name: "b", Final: Final{Events: bEvents, IngressBps: caps, EgressBps: caps}},
	}
}

func holdEv(kind, hold, side string, req int, at float64) trace.Event {
	ev := trace.Event{
		At: at, Kind: kind, Hold: hold, Side: side, Request: req,
		Ingress: 0, Egress: 1, RateBps: 1e9, SigmaS: at, TauS: at + 10,
	}
	if kind == trace.EventHoldReserve {
		ev.ExpireS = at + 5
	}
	return ev
}

func violations(t *testing.T, vs []Violation, want ...string) {
	t.Helper()
	if len(vs) != len(want) {
		t.Fatalf("got %d violations %v, want %d (%v)", len(vs), vs, len(want), want)
	}
	for i, inv := range want {
		if vs[i].Invariant != inv {
			t.Errorf("violation %d = %v, want invariant %q", i, vs[i], inv)
		}
	}
}

// TestVerifyShardsCleanCrossShard: a hold committed on both owners backs
// a cross_shard-acked admission — nothing to report.
func TestVerifyShardsCleanCrossShard(t *testing.T) {
	shards := twoShards(
		[]trace.Event{
			holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideIngress, 0, 0),
			holdEv(trace.EventHoldConfirm, "x-k1", trace.HoldSideIngress, 0, 1),
		},
		[]trace.Event{
			holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideEgress, -1, 0),
			holdEv(trace.EventHoldConfirm, "x-k1", trace.HoldSideEgress, -1, 1),
		},
	)
	ops := []Op{{
		Node: "router", Kind: OpSubmit, Key: "k1", ID: 0, Accepted: true,
		Routed: "cross_shard",
	}}
	violations(t, VerifyShards(ops, shards))
}

// TestVerifyShardsOneSidedCommit: confirmed ingress, aborted egress — the
// half-commit a router crash between CONFIRMs leaves behind.
func TestVerifyShardsOneSidedCommit(t *testing.T) {
	shards := twoShards(
		[]trace.Event{
			holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideIngress, 0, 0),
			holdEv(trace.EventHoldConfirm, "x-k1", trace.HoldSideIngress, 0, 1),
		},
		[]trace.Event{
			holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideEgress, -1, 0),
			holdEv(trace.EventHoldAbort, "x-k1", trace.HoldSideEgress, -1, 2),
		},
	)
	vs := VerifyShards(nil, shards)
	violations(t, vs, "hold-pairing")
	if !strings.Contains(vs[0].Detail, "1 of 2 sides") {
		t.Errorf("detail = %q, want the committed-side count", vs[0].Detail)
	}
}

// TestVerifyShardsCrossAckLoss: the router acked cross_shard but no
// committed ingress hold backs the reservation — the grant evaporated.
func TestVerifyShardsCrossAckLoss(t *testing.T) {
	shards := twoShards(
		[]trace.Event{
			holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideIngress, 0, 0),
			holdEv(trace.EventHoldExpire, "x-k1", trace.HoldSideIngress, 0, 5),
		},
		[]trace.Event{
			holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideEgress, -1, 0),
			holdEv(trace.EventHoldExpire, "x-k1", trace.HoldSideEgress, -1, 5),
		},
	)
	// Visible ID 0 decodes to shard a local 0 — the expired hold above.
	ops := []Op{{
		Node: "router", Kind: OpSubmit, Key: "k1", ID: 0, Accepted: true,
		Routed: "cross_shard",
	}}
	vs := VerifyShards(ops, shards)
	violations(t, vs, "cross-ack-loss")
}

// TestVerifyShardsCancelAfterCommit: a client cancel of a cross-shard
// reservation aborts both holds AFTER their confirms — a legitimate
// lifecycle, not an ack loss and not a pairing break.
func TestVerifyShardsCancelAfterCommit(t *testing.T) {
	shards := twoShards(
		[]trace.Event{
			holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideIngress, 0, 0),
			holdEv(trace.EventHoldConfirm, "x-k1", trace.HoldSideIngress, 0, 1),
			holdEv(trace.EventHoldAbort, "x-k1", trace.HoldSideIngress, 0, 3),
		},
		[]trace.Event{
			holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideEgress, -1, 0),
			holdEv(trace.EventHoldConfirm, "x-k1", trace.HoldSideEgress, -1, 1),
			holdEv(trace.EventHoldAbort, "x-k1", trace.HoldSideEgress, -1, 3),
		},
	)
	ops := []Op{
		{Node: "router", Kind: OpSubmit, Key: "k1", ID: 0, Accepted: true, Routed: "cross_shard"},
		{Node: "router", Kind: OpCancel, ID: 0},
	}
	violations(t, VerifyShards(ops, shards))
}

// TestVerifyShardsDuplicateSide: one hold side recorded on two shards
// means the router double-booked the same half of a pair.
func TestVerifyShardsDuplicateSide(t *testing.T) {
	shards := twoShards(
		[]trace.Event{holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideIngress, 0, 0)},
		[]trace.Event{holdEv(trace.EventHoldReserve, "x-k1", trace.HoldSideIngress, 0, 0)},
	)
	vs := VerifyShards(nil, shards)
	violations(t, vs, "hold-pairing")
	if !strings.Contains(vs[0].Detail, "recorded on shards") {
		t.Errorf("detail = %q, want the duplicate-side message", vs[0].Detail)
	}
}

// TestVerifyShardsHoldCapacityFolded: tentative holds book real
// bandwidth — two overlapping full-rate ingress holds on one point must
// trip the per-shard capacity sweep.
func TestVerifyShardsHoldCapacityFolded(t *testing.T) {
	mk := func(hold string, req int) trace.Event {
		ev := holdEv(trace.EventHoldReserve, hold, trace.HoldSideIngress, req, 0)
		ev.RateBps = 0.8e9
		return ev
	}
	shards := twoShards([]trace.Event{mk("x-k1", 0), mk("x-k2", 1)}, nil)
	vs := VerifyShards(nil, shards)
	// Both holds stay un-committed with no client ack, so pairing stays
	// quiet — only the oversubscription reports.
	violations(t, vs, "capacity")
	if !strings.Contains(vs[0].Detail, "shard a") {
		t.Errorf("detail = %q, want the shard a prefix", vs[0].Detail)
	}

	// A refused RESERVE is recorded with its reason and books nothing.
	refused := mk("x-k2", 1)
	refused.Reason = "ingress capacity saturated"
	violations(t, VerifyShards(nil, twoShards([]trace.Event{mk("x-k1", 0), refused}, nil)))
}

// TestVerifyShardsEgressHoldsDoNotCollide: egress-side hold events all
// carry reservation ID -1; two such holds on one shard must neither trip
// the duplicate-accept check nor clip each other's booking when one
// aborts. Regression for the synthetic-ID folding.
func TestVerifyShardsEgressHoldsDoNotCollide(t *testing.T) {
	mk := func(kind, hold string, at float64) trace.Event {
		ev := holdEv(kind, hold, trace.HoldSideEgress, -1, at)
		ev.RateBps = 0.5e9
		ev.SigmaS, ev.TauS = 0, 10
		return ev
	}
	shards := twoShards(nil, []trace.Event{
		mk(trace.EventHoldReserve, "x-p", 0),
		mk(trace.EventHoldReserve, "x-q", 0),
		mk(trace.EventHoldAbort, "x-p", 1),
	})
	violations(t, VerifyShards(nil, shards))

	// And the abort must release only its own hold: a third reserve that
	// fits exactly because x-p is gone — but would oversubscribe if x-p's
	// abort had also clipped x-q — still counts x-q's full window.
	over := mk(trace.EventHoldReserve, "x-r", 2)
	over.RateBps = 0.6e9
	shards[1].Events = append(shards[1].Events, over)
	violations(t, VerifyShards(nil, shards), "capacity")
}

// TestVerifyShardsVisibleIDDecode: per-shard invariants run on the
// decoded local ID space — the same idempotency key acked with two
// visible IDs owned by one shard is that shard's violation.
func TestVerifyShardsVisibleIDDecode(t *testing.T) {
	shards := twoShards(nil, nil)
	ops := []Op{
		{Node: "router", Kind: OpSubmit, Key: "dup", ID: 1, Accepted: true},
		{Node: "router", Kind: OpSubmit, Key: "dup", ID: 3, Accepted: true},
	}
	vs := VerifyShards(ops, shards)
	violations(t, vs, "idempotency")
	if !strings.Contains(vs[0].Detail, "shard b") {
		t.Errorf("detail = %q, want the violation pinned to shard b", vs[0].Detail)
	}
}

// TestVerifyShardsNoShards: an empty shard list is a config error, not a
// clean pass.
func TestVerifyShardsNoShards(t *testing.T) {
	violations(t, VerifyShards(nil, nil), "config")
}
