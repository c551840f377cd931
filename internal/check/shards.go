package check

// Multi-shard verification for router-tier runs. A gridbwload history
// recorded against gridbwrouter carries visible reservation IDs
// (local×N + shard, shard order = ring order) and cross_shard routing
// markers; the ground truth is one WAL per shard group. VerifyShards
// splits the history back into per-shard local histories, re-runs the
// single-shard invariants on each, and adds the two guarantees only a
// router tier can break:
//
//  5. hold pairing: every cross-shard hold key is either committed
//     (confirmed, never aborted) on BOTH its ingress and egress owner,
//     or committed on neither — a one-sided commit is capacity a client
//     was never granted, leaked until τ;
//  6. cross-shard ack survival: an admission the router answered with
//     routed=cross_shard must be backed by an ingress-side hold that
//     reached confirmed in the owning shard's history (a later abort is
//     a client cancel, not a lost ack).
//
// Per-shard capacity accounting folds confirmed and tentative holds in
// as one-sided bookings, so shared points cannot hide oversubscription
// behind the two-phase protocol.

import (
	"fmt"

	"gridbw/internal/trace"
)

// ShardFinal is one shard group's post-run ground truth, in ring order
// (the order of the router's -shard flags).
type ShardFinal struct {
	// Name labels the shard in violation messages.
	Name string
	Final
}

// VerifyShards checks a router-tier client history against every shard
// group's ground truth and returns all violations found. Shard order
// must match the router's ring order — it defines the visible-ID
// namespace (visible = local×N + shard).
func VerifyShards(ops []Op, shards []ShardFinal) []Violation {
	n := len(shards)
	if n == 0 {
		return []Violation{{"config", "no shards given"}}
	}
	// Fencing is per node label, which survives the router unchanged.
	out := checkFencing(ops)
	for i, sh := range shards {
		fin := foldHolds(sh.Final)
		sub := localOps(ops, i, n)
		var vs []Violation
		vs = append(vs, checkDurableLoss(sub, fin)...)
		vs = append(vs, checkIdempotency(sub, fin)...)
		vs = append(vs, checkCapacity(fin)...)
		for _, v := range vs {
			v.Detail = fmt.Sprintf("shard %s: %s", sh.Name, v.Detail)
			out = append(out, v)
		}
	}
	out = append(out, checkHoldPairing(shards)...)
	out = append(out, checkCrossAck(ops, shards)...)
	return out
}

// localOps projects the client history onto one shard: accepted
// submissions whose visible ID decodes to shard i, rewritten to the
// shard's local ID space. Unaccepted and failed ops carry no ID to
// decode and assert nothing per-shard, so they are dropped here (the
// global fencing pass still sees them).
func localOps(ops []Op, i, n int) []Op {
	var out []Op
	for _, op := range ops {
		if op.Kind != OpSubmit || !op.Accepted || op.ID%n != i {
			continue
		}
		op.ID /= n
		out = append(out, op)
	}
	return out
}

// holdFate is one hold side's final state in one shard's history.
type holdFate struct {
	shard     string
	side      string
	reserved  bool
	confirmed bool
	aborted   bool // abort or TTL expiry
	// id is the shard-local reservation ID of the reserve event.
	id int
}

// committed: the hold booked capacity and kept it to its natural end
// (release at τ counts — the grant ran its course).
func (f holdFate) committed() bool { return f.confirmed && !f.aborted }

// holdFates folds each shard's hold events into final per-(key, side)
// states.
func holdFates(shards []ShardFinal) map[string][]holdFate {
	fates := make(map[string][]holdFate)
	find := func(key, side, shard string) *holdFate {
		for j := range fates[key] {
			if f := &fates[key][j]; f.side == side && f.shard == shard {
				return f
			}
		}
		fates[key] = append(fates[key], holdFate{shard: shard, side: side, id: -1})
		return &fates[key][len(fates[key])-1]
	}
	for _, sh := range shards {
		for _, ev := range sh.Events {
			if ev.Hold == "" {
				continue
			}
			f := find(ev.Hold, ev.Side, sh.Name)
			switch ev.Kind {
			case trace.EventHoldReserve:
				f.reserved, f.id = true, ev.Request
			case trace.EventHoldConfirm:
				f.confirmed = true
			case trace.EventHoldAbort, trace.EventHoldExpire:
				f.aborted = true
			}
		}
	}
	return fates
}

// checkHoldPairing: both sides of a cross-shard hold key committed, or
// neither.
func checkHoldPairing(shards []ShardFinal) []Violation {
	var out []Violation
	for key, sides := range holdFates(shards) {
		seen := make(map[string]string) // side -> shard
		var committed, total int
		for _, f := range sides {
			if prev, dup := seen[f.side]; dup {
				out = append(out, Violation{"hold-pairing", fmt.Sprintf(
					"hold %q side %q recorded on shards %s and %s", key, f.side, prev, f.shard)})
			}
			seen[f.side] = f.shard
			total++
			if f.committed() {
				committed++
			}
		}
		if committed != 0 && committed != total {
			out = append(out, Violation{"hold-pairing", fmt.Sprintf(
				"hold %q committed on %d of %d sides: %s", key, committed, total, describeFates(sides))})
		}
		if committed > 0 && total < 2 {
			out = append(out, Violation{"hold-pairing", fmt.Sprintf(
				"hold %q committed with only one side on record: %s", key, describeFates(sides))})
		}
	}
	return out
}

func describeFates(sides []holdFate) string {
	s := ""
	for i, f := range sides {
		if i > 0 {
			s += ", "
		}
		state := "held"
		switch {
		case f.committed():
			state = "committed"
		case f.aborted:
			state = "rolled back"
		}
		s += fmt.Sprintf("%s/%s=%s", f.shard, f.side, state)
	}
	return s
}

// checkCrossAck: an admission answered routed=cross_shard must be
// backed by an ingress-side hold that reached confirmed on the owning
// shard. Confirmed-then-aborted still counts — that is a later client
// cancel undoing a real grant, not an ack the protocol lost.
func checkCrossAck(ops []Op, shards []ShardFinal) []Violation {
	n := len(shards)
	// Confirmed ingress-side holds per shard, by local reservation ID.
	confirmed := make([]map[int]bool, n)
	for i := range confirmed {
		confirmed[i] = make(map[int]bool)
	}
	for _, sides := range holdFates(shards) {
		for _, f := range sides {
			if f.side != trace.HoldSideIngress || !f.confirmed || f.id < 0 {
				continue
			}
			for j, sh := range shards {
				if sh.Name == f.shard {
					confirmed[j][f.id] = true
				}
			}
		}
	}
	var out []Violation
	for _, op := range ops {
		if op.Kind != OpSubmit || !op.Accepted || op.Routed != "cross_shard" {
			continue
		}
		local, idx := op.ID/n, op.ID%n
		if !confirmed[idx][local] {
			out = append(out, Violation{"cross-ack-loss", fmt.Sprintf(
				"reservation %d (key %q) was acked cross_shard but shard %s has no confirmed ingress hold for local id %d",
				op.ID, op.Key, shards[idx].Name, local)})
		}
	}
	return out
}

// foldHolds rewrites one shard's hold events as one-sided synthetic
// accept/cancel events so the single-shard capacity and idempotency
// sweeps account for hold-booked bandwidth. A reserve books its window
// on the shard's own point the moment it lands (tentative or not — the
// ledger holds the capacity either way); an abort or expiry returns it
// at that event's time, exactly like a cancel. The peer's point index
// riding in the opposite field belongs to another shard's platform, so
// it is blanked to -1, which the capacity sweep skips.
func foldHolds(fin Final) Final {
	events := make([]trace.Event, 0, len(fin.Events))
	// Egress-side hold events carry no local reservation ID (-1). Give
	// each hold key its own synthetic negative ID so the folded accept
	// and cancel pair up per hold — on the shared -1 they would collide
	// in the idempotency and end-clipping maps, one hold's abort cutting
	// every other egress hold's interval short.
	synth := make(map[string]int)
	idFor := func(ev trace.Event) int {
		if ev.Request >= 0 {
			return ev.Request
		}
		id, ok := synth[ev.Hold]
		if !ok {
			id = -2 - len(synth)
			synth[ev.Hold] = id
		}
		return id
	}
	for _, ev := range fin.Events {
		if ev.Hold == "" {
			events = append(events, ev)
			continue
		}
		switch {
		case ev.Kind == trace.EventHoldReserve && ev.Reason != "":
			// A refused RESERVE: its record books nothing.
		case ev.Kind == trace.EventHoldReserve:
			acc := ev
			acc.Kind = trace.EventAccept
			acc.Request = idFor(ev)
			if ev.Side == trace.HoldSideIngress {
				acc.Egress = -1
			} else {
				acc.Ingress = -1
			}
			events = append(events, acc)
		case ev.Kind == trace.EventHoldAbort || ev.Kind == trace.EventHoldExpire:
			events = append(events, trace.Event{
				At: ev.At, Kind: trace.EventCancel, Request: idFor(ev),
				Ingress: -1, Egress: -1,
			})
		}
		// Confirms change no booking; releases happen at τ, where the
		// interval ends anyway.
	}
	return Final{Events: events, IngressBps: fin.IngressBps, EgressBps: fin.EgressBps}
}
