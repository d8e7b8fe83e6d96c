package cluster

import (
	"fmt"

	"cronus/internal/sim"
)

// window is a half-open [From, To) interval of virtual time.
type window struct {
	from, to sim.Time
}

// slowWindow is a window during which a link's latency is multiplied.
type slowWindow struct {
	window
	mult float64
}

// Fabric models the inter-node interconnect as a star: the serving gateway
// owns one full-duplex link per node. Latency is the one-way propagation
// delay; GBps is the link bandwidth; SerPerByte is the per-byte
// serialization cost charged on top, playing the role MemcpyPerByte plays
// for local staging.
//
// Fault windows (net-partition, slow-link) are registered before serving
// starts and are immutable afterwards: every query is a pure function of
// (node, instant).
type Fabric struct {
	nodes      int
	Latency    sim.Duration
	GBps       float64
	SerPerByte float64

	parts [][]window
	slows [][]slowWindow
}

// NewFabric builds a fabric for n nodes with the given per-link latency,
// bandwidth, and serialization cost.
func NewFabric(n int, latency sim.Duration, gbps, serPerByte float64) (*Fabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: fabric needs at least one node, got %d", n)
	}
	if latency <= 0 {
		return nil, fmt.Errorf("cluster: link latency must be positive, got %s", latency)
	}
	if gbps <= 0 {
		return nil, fmt.Errorf("cluster: link bandwidth must be positive, got %g GB/s", gbps)
	}
	return &Fabric{
		nodes:      n,
		Latency:    latency,
		GBps:       gbps,
		SerPerByte: serPerByte,
		parts:      make([][]window, n),
		slows:      make([][]slowWindow, n),
	}, nil
}

// Nodes returns the node count.
func (f *Fabric) Nodes() int { return f.nodes }

// AddPartition marks the link to node as partitioned over [from, to).
func (f *Fabric) AddPartition(node int, from, to sim.Time) {
	f.parts[node] = append(f.parts[node], window{from: from, to: to})
}

// AddSlowLink multiplies the link's transport latency by mult over
// [from, to).
func (f *Fabric) AddSlowLink(node int, mult float64, from, to sim.Time) {
	f.slows[node] = append(f.slows[node], slowWindow{window: window{from: from, to: to}, mult: mult})
}

// PartitionedAt reports whether the link to node is partitioned at the
// instant.
func (f *Fabric) PartitionedAt(node int, at sim.Time) bool {
	for _, w := range f.parts[node] {
		if at >= w.from && at < w.to {
			return true
		}
	}
	return false
}

// HealAt returns the instant the partition covering `at` heals. If
// overlapping windows chain past each other the latest end wins, so a
// flush scheduled at the returned instant always lands on a healed link
// (or re-arms — callers re-check PartitionedAt).
func (f *Fabric) HealAt(node int, at sim.Time) sim.Time {
	heal := at
	for _, w := range f.parts[node] {
		if at >= w.from && at < w.to && w.to > heal {
			heal = w.to
		}
	}
	return heal
}

// SlowMultAt returns the latency multiplier in force on the link to node at
// the instant (1 when no slow-link window covers it; overlapping windows
// compound by taking the largest multiplier).
func (f *Fabric) SlowMultAt(node int, at sim.Time) float64 {
	mult := 1.0
	for _, w := range f.slows[node] {
		if at >= w.from && at < w.to && w.mult > mult {
			mult = w.mult
		}
	}
	return mult
}

// TransferNS prices moving nbytes across the link to node at the instant:
// serialization (SerPerByte · n) plus bandwidth occupancy (n / GBps; one
// GB/s is one byte per ns) plus the slow-link round-trip surcharge
// 2·(mult−1)·Latency. The base propagation delay is NOT included — it is
// carried by the sim.Port hop so event ordering and cost accounting
// agree on when bytes arrive.
func (f *Fabric) TransferNS(node int, nbytes int, at sim.Time) sim.Duration {
	ns := float64(f.SerPerByte*float64(nbytes)) + float64(nbytes)/f.GBps
	if mult := f.SlowMultAt(node, at); mult > 1 {
		ns += float64(2 * (mult - 1) * float64(f.Latency))
	}
	return sim.Duration(ns)
}
