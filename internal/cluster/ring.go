// Package cluster is the scale-out layer over tagserved: a consistent-
// hash shard map that partitions resources across nodes, and a gateway
// (cmd/taggate) that proxies ingest to each post's owner node and
// scatter-gathers queries across all nodes, merging partial top-k lists
// bit-identically to a single-node engine fed the same posts.
//
// Placement is a pure function of the shard map: the ring hashes every
// (node name, virtual node) pair and every resource id with FNV-1a 64,
// and a resource belongs to the first node point at or clockwise from
// its hash. Virtual nodes smooth the partition (the classic consistent-
// hashing construction), and adding or removing one node moves only the
// resources in the arcs it owned — placement of everything else is
// untouched.
//
// The shard map is static JSON loaded at boot by both the gateway and
// every node. Its Hash — covering exactly the placement-relevant inputs
// (virtual-node count and the ordered node names) — is exchanged on
// every cluster RPC, so a gateway and a node booted from divergent maps
// fail loudly (409) instead of silently mis-ranking.
package cluster

import (
	"sort"
	"strconv"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a64 hashes a byte string with FNV-1a (64-bit) — the same cheap,
// dependency-free hash the engine uses elsewhere, and deterministic
// across platforms and process restarts, which is the property that
// makes placement reproducible in tests and across gateway restarts.
func fnv1a64(data []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer, applied on top of FNV-1a for every
// ring position. Raw FNV-1a has poor avalanche on short decimal keys:
// two ids sharing all but their final digit differ by at most 9 × the
// FNV prime (~10^13) after the last multiply — adjacent specks on a
// 2^64 ring. A corpus of small consecutive ids therefore collapses into
// one cluster per digit-prefix (and a node's "name#v" vnode labels
// cluster the same way), which in practice left whole nodes owning
// nothing. The finalizer's xor-shift-multiply cascade spreads those
// specks uniformly; determinism is untouched.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int // index into the map's node list
}

// Ring is a consistent-hash ring over the shard map's nodes. Build with
// Map.Ring; read-only and safe for concurrent use after construction.
type Ring struct {
	points []point
}

// newRing places vnodes points per node. Points are sorted by (hash,
// node) — the tie-break makes placement deterministic even in the
// astronomically unlikely event of a 64-bit hash collision between two
// nodes' virtual points.
func newRing(names []string, vnodes int) *Ring {
	r := &Ring{points: make([]point, 0, len(names)*vnodes)}
	for i, name := range names {
		// "name#v": the vnode label is hashed as a suffix of the name so
		// each (node, vnode) pair lands at an independent position.
		base := append([]byte(name), '#')
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash: mix64(fnv1a64(strconv.AppendInt(base, int64(v), 10))),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Owner maps a resource id to the index of its owning node: the first
// ring point at or clockwise from the resource's hash, wrapping past
// the top of the hash space to the first point. The decimal key is
// formatted into a stack buffer (an int64 needs at most 20 bytes), so
// placement allocates nothing: the gateway calls this per ingested
// event and per query.
func (r *Ring) Owner(resource int) int {
	var buf [20]byte
	h := mix64(fnv1a64(strconv.AppendInt(buf[:0], int64(resource), 10)))
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
