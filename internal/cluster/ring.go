package cluster

import (
	"fmt"
	"sort"
)

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int
}

// Ring is a seeded consistent-hash ring with virtual nodes and bounded-load
// overflow. Placement walks the circle clockwise from the key's hash and
// takes the first node that is alive and under the load bound; with the
// bound disabled this is classic consistent hashing, which is what gives
// the minimal-movement property on node join/leave (only keys whose owning
// arc changes move). The seed perturbs every hash, so two rings with
// different seeds produce independent assignments while each individual
// ring is fully deterministic.
type Ring struct {
	nodes  int
	seed   int64
	points []ringPoint
}

// fnv64a is FNV-1a over a string followed by a murmur-style finalizer.
// Raw FNV barely avalanches on short strings that differ only in a trailing
// digit — every vnode of a node would collapse onto one arc — so the mix
// scatters the bits before the ring uses them.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing builds a ring of nodes×vnodes points. vnodes controls balance
// (64 keeps max/mean load comfortably inside a 1.25 bound at 1k keys).
func NewRing(nodes, vnodes int, seed int64) (*Ring, error) {
	if nodes < 1 || vnodes < 1 {
		return nil, fmt.Errorf("cluster: ring needs nodes>=1 and vnodes>=1, got %d/%d", nodes, vnodes)
	}
	r := &Ring{nodes: nodes, seed: seed, points: make([]ringPoint, 0, nodes*vnodes)}
	for n := 0; n < nodes; n++ {
		for v := 0; v < vnodes; v++ {
			h := fnv64a(fmt.Sprintf("%d/n%d/v%d", seed, n, v))
			r.points = append(r.points, ringPoint{hash: h, node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// keyHash positions a key on the circle (seed-perturbed, so assignments
// across seeds are independent).
func (r *Ring) keyHash(key string) uint64 {
	return fnv64a(fmt.Sprintf("%d/%s", r.seed, key))
}

// Home walks clockwise from the key's position and returns the first node
// that is alive (alive == nil means all) and, when bound > 0 and loads is
// non-nil, carries fewer than bound keys. If every alive node is at the
// bound the walk relaxes it and returns the first alive node, so a valid
// home always exists while any node lives; -1 means no node is alive.
func (r *Ring) Home(key string, alive []bool, loads []int, bound int) int {
	h := r.keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	firstAlive := -1
	for i := 0; i < len(r.points); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if alive != nil && !alive[pt.node] {
			continue
		}
		if firstAlive < 0 {
			firstAlive = pt.node
		}
		if bound > 0 && loads != nil && loads[pt.node] >= bound {
			continue
		}
		return pt.node
	}
	return firstAlive
}

// Assign places keys in order with all nodes alive, enforcing the load
// bound (0 disables it), and returns the per-key node. Earlier keys claim
// capacity first, so the assignment is deterministic in key order.
func (r *Ring) Assign(keys []string, bound int) []int {
	loads := make([]int, r.nodes)
	homes := make([]int, len(keys))
	for i, k := range keys {
		n := r.Home(k, nil, loads, bound)
		homes[i] = n
		if n >= 0 {
			loads[n]++
		}
	}
	return homes
}
