package router

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// TestRingDeterministic: the mapping is a pure function of (seed, shard
// names, replicas) — two independently built rings agree on every point,
// and a different seed actually produces a different mapping.
func TestRingDeterministic(t *testing.T) {
	shards := []string{"alpha", "beta", "gamma"}
	a, err := NewRing(shards, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(shards, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRing(shards, 43, 0)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for p := 0; p < 4096; p++ {
		if a.OwnerIn(p) != b.OwnerIn(p) || a.OwnerEg(p) != b.OwnerEg(p) {
			t.Fatalf("point %d: same config disagrees: in %d/%d eg %d/%d",
				p, a.OwnerIn(p), b.OwnerIn(p), a.OwnerEg(p), b.OwnerEg(p))
		}
		if a.OwnerIn(p) != c.OwnerIn(p) || a.OwnerEg(p) != c.OwnerEg(p) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the seed changed no assignment at all")
	}
}

// TestRingIndependentDirections: ingress and egress ownership of the
// same point index are independent facts — over enough points they must
// disagree somewhere, or pairs (i, i) would never be cross-shard.
func TestRingIndependentDirections(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c", "d"}, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for p := 0; p < 1024; p++ {
		if r.OwnerIn(p) != r.OwnerEg(p) {
			differ++
		}
	}
	if differ == 0 {
		t.Error("ingress and egress owners never differ; directions are not hashed independently")
	}
}

// TestRingSpread: with default replicas every shard owns a reasonable
// slice of the point space — no shard starves.
func TestRingSpread(t *testing.T) {
	shards := []string{"a", "b", "c", "d", "e"}
	r, err := NewRing(shards, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const points = 10000
	counts := make([]int, len(shards))
	for p := 0; p < points; p++ {
		counts[r.OwnerIn(p)]++
	}
	fair := points / len(shards)
	for i, n := range counts {
		if n < fair/3 || n > fair*3 {
			t.Errorf("shard %s owns %d of %d ingress points, want within 3x of fair share %d",
				shards[i], n, points, fair)
		}
	}
}

// TestRingMovement: appending one shard to an N-shard ring moves about
// 1/(N+1) of the points per direction — and therefore at most about
// 2/(N+1) of the pairs — because existing vnode hashes stay put and only
// the keys the new shard's vnodes capture change owner.
func TestRingMovement(t *testing.T) {
	old := []string{"s0", "s1", "s2", "s3"}
	grown := append(append([]string(nil), old...), "s4")
	before, err := NewRing(old, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing(grown, 11, 0)
	if err != nil {
		t.Fatal(err)
	}

	const points = 2000
	movedPoints := 0
	for p := 0; p < points; p++ {
		if before.OwnerIn(p) != after.OwnerIn(p) {
			movedPoints++
		}
		// Every survivor keeps its identity: a moved point must move TO the
		// new shard, never between old shards.
		if before.OwnerIn(p) != after.OwnerIn(p) && after.OwnerIn(p) != len(old) {
			t.Fatalf("ingress point %d moved between old shards: %d -> %d",
				p, before.OwnerIn(p), after.OwnerIn(p))
		}
		if before.OwnerEg(p) != after.OwnerEg(p) && after.OwnerEg(p) != len(old) {
			t.Fatalf("egress point %d moved between old shards: %d -> %d",
				p, before.OwnerEg(p), after.OwnerEg(p))
		}
	}
	// Expect ~points/5 moved; allow generous slack for hash variance but
	// fail on anything resembling a rehash-the-world mapping.
	if frac := float64(movedPoints) / points; frac > 0.35 {
		t.Errorf("adding 1 shard to %d moved %.0f%% of ingress points, want ~%.0f%%",
			len(old), frac*100, 100.0/float64(len(grown)))
	}
	if movedPoints == 0 {
		t.Error("adding a shard moved nothing; the new shard owns no points")
	}

	const side = 60 // 3600 pairs
	movedPairs := 0
	for i := 0; i < side; i++ {
		for e := 0; e < side; e++ {
			b := [2]int{before.OwnerIn(i), before.OwnerEg(e)}
			a := [2]int{after.OwnerIn(i), after.OwnerEg(e)}
			if a != b {
				movedPairs++
			}
		}
	}
	// A pair moves when either endpoint does: ≈ 1-(1-1/5)² = 36%. Bound
	// it well under half.
	if frac := float64(movedPairs) / (side * side); frac > 0.5 {
		t.Errorf("adding 1 shard moved %.0f%% of pairs, want ≲ 2/N", frac*100)
	}
}

// TestRingValidation: degenerate configs are refused, not mis-routed.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0, 0); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0, 0); err == nil {
		t.Error("empty shard name accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0, 0); err == nil {
		t.Error("duplicate shard name accepted")
	}
}

// formattedOwner is the ring lookup as it was first written: the point's
// key formatted as "in|17" or "eg|17", hashed by hash/fnv and mixed, and
// searched among the vnodes.
func formattedOwner(r *Ring, prefix string, p int) int {
	h := fnv.New64a()
	h.Write([]byte(fmt.Sprintf("%s|%d", prefix, p)))
	key := mix64(h.Sum64())
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= key })
	if i == len(r.keys) {
		i = 0
	}
	return r.owners[i]
}

// TestRingOwnersMatchFormattedKeys: hashing a point's key from a stack
// buffer moves no owner — for every seed, ring size and point below 4096
// the owner is the one the formatted key names, or a routed workload's
// cross share and accept rate would silently change — and a lookup
// allocates nothing.
func TestRingOwnersMatchFormattedKeys(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3", "s4"}
	for _, seed := range []uint64{1, 7, 42} {
		for n := 1; n <= len(names); n++ {
			r, err := NewRing(names[:n], seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 4096; p++ {
				if got, want := r.OwnerIn(p), formattedOwner(r, "in", p); got != want {
					t.Fatalf("seed %d, %d shards: ingress %d owned by %d, want %d", seed, n, p, got, want)
				}
				if got, want := r.OwnerEg(p), formattedOwner(r, "eg", p); got != want {
					t.Fatalf("seed %d, %d shards: egress %d owned by %d, want %d", seed, n, p, got, want)
				}
			}
		}
	}
	r, err := NewRing(names, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	if n := testing.AllocsPerRun(100, func() { owned += r.OwnerIn(4095) + r.OwnerEg(123456789) }); n != 0 {
		t.Errorf("an owner lookup allocates %v times, want 0", n)
	}
	_ = owned
}
