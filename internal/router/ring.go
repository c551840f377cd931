package router

import (
	"fmt"
	"sort"
	"strconv"
)

// defaultReplicas is the vnode count per shard: enough that the point
// space splits near-evenly across a handful of shards without making the
// ring search noticeably slower.
const defaultReplicas = 64

// Ring consistent-hashes access points onto a static set of shard groups.
// Ingress and egress points hash independently: shard s owns ingress i
// and egress e as separate facts, and a pair is same-shard exactly when
// both owners coincide. The mapping is a pure function of (seed, shard
// names, replicas) — every router instance with the same static config
// routes identically, with no coordination — and appending a shard leaves
// existing vnode hashes untouched, so only the points its vnodes capture
// move (~1/N of each direction).
type Ring struct {
	shards []string
	keys   []uint64 // sorted vnode hashes
	owners []int    // owners[i] is the shard owning keys[i]
}

// NewRing builds the ring. Shard names must be unique and non-empty;
// replicas <= 0 takes the default.
func NewRing(shards []string, seed uint64, replicas int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("router: ring needs at least one shard")
	}
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	seen := make(map[string]bool, len(shards))
	for _, name := range shards {
		if name == "" {
			return nil, fmt.Errorf("router: empty shard name")
		}
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate shard name %q", name)
		}
		seen[name] = true
	}
	r := &Ring{
		shards: append([]string(nil), shards...),
		keys:   make([]uint64, 0, len(shards)*replicas),
		owners: make([]int, 0, len(shards)*replicas),
	}
	type vnode struct {
		hash  uint64
		owner int
	}
	vns := make([]vnode, 0, len(shards)*replicas)
	for idx, name := range shards {
		for v := 0; v < replicas; v++ {
			vns = append(vns, vnode{hash64(fmt.Appendf(nil, "%d|%s|%d", seed, name, v)), idx})
		}
	}
	// Ties (two vnodes at one hash) break by shard index so the mapping
	// stays deterministic regardless of input order.
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].hash != vns[j].hash {
			return vns[i].hash < vns[j].hash
		}
		return vns[i].owner < vns[j].owner
	})
	for _, vn := range vns {
		r.keys = append(r.keys, vn.hash)
		r.owners = append(r.owners, vn.owner)
	}
	return r, nil
}

// NumShards reports the ring's shard count.
func (r *Ring) NumShards() int { return len(r.shards) }

// ShardName reports the configured name of shard idx.
func (r *Ring) ShardName(idx int) string { return r.shards[idx] }

// OwnerIn reports the shard owning ingress point p.
func (r *Ring) OwnerIn(p int) int { return r.pointOwner("in|", p) }

// OwnerEg reports the shard owning egress point p.
func (r *Ring) OwnerEg(p int) int { return r.pointOwner("eg|", p) }

// pointOwner hashes a point's key — the direction's prefix and the point's
// decimal index, "in|17" — from a stack buffer, so a lookup allocates
// nothing.
func (r *Ring) pointOwner(prefix string, p int) int {
	var buf [24]byte
	return r.owner(hash64(strconv.AppendInt(append(buf[:0], prefix...), int64(p), 10)))
}

// owner maps a key's hash to the first vnode at or clockwise of it.
func (r *Ring) owner(h uint64) int {
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= h })
	if i == len(r.keys) {
		i = 0
	}
	return r.owners[i]
}

// hash64 is FNV-1a over key, finished by mix64.
func hash64(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return mix64(h)
}

// The FNV-1a 64-bit parameters (hash/fnv's).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 is the splitmix64 finalizer. FNV-1a's upper bits avalanche
// poorly on short near-sequential keys ("in|17", "0|s4|63"), and ring
// placement orders by the full 64-bit value — without a final mix the
// vnodes and points cluster and one shard captures far more than its
// share.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
