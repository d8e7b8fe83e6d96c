// Package cluster models a multi-node disaggregated fabric: N simulated
// machines, each booted as its own core.Platform (own SPM, partition pool,
// mOS instances, dispatcher) inside one shared discrete-event kernel, joined
// by a modeled inter-node transport. The transport charges latency,
// serialization, and bandwidth in virtual time from the same cost table that
// prices PCIe on a single machine, so cross-node placement decisions trade
// off against local ones in the same currency.
//
// The package owns three pieces:
//
//   - Fabric: the star-topology gateway↔node links. Per-link latency and
//     GBps are configurable; net-partition and slow-link fault windows are
//     registered before serving starts and consulted afterwards as pure
//     functions of (node, time).
//   - Ring: seeded consistent hashing with virtual nodes and bounded-load
//     overflow, used by the serving plane's global placement tier for
//     tenant→node assignment and for re-homing on node loss.
//   - BootNodes: builds N platforms on one kernel and gives each node a
//     disjoint stream-id range so stream ids and executor names stay unique
//     across the simulation.
//
// Determinism contract: every decision is a function of virtual time and the
// seed; cross-node deliveries ride sim.Port, so they land in the kernel's
// total event order.
package cluster

import (
	"fmt"

	"cronus/internal/sim"
)

// FaultKind names a node-level fault the fabric can model.
type FaultKind string

// Node-level fault kinds. NodeCrash kills a whole machine (its partition
// pool never comes back); NetPartition makes cross-node sends to the node
// fail typed until a heal instant; SlowLink multiplies the node's transport
// latency for a window.
const (
	NodeCrash    FaultKind = "node-crash"
	NetPartition FaultKind = "net-partition"
	SlowLink     FaultKind = "slow-link"
)

// Fault is one scheduled node-level fault. At and Until are offsets from
// serving start; Until is ignored for NodeCrash (crashes never heal) and
// Mult only applies to SlowLink.
type Fault struct {
	Kind  FaultKind
	Node  int
	At    sim.Duration
	Until sim.Duration
	Mult  float64
}

// String renders the fault deterministically for schedule reports.
func (f Fault) String() string {
	switch f.Kind {
	case NodeCrash:
		return fmt.Sprintf("node-crash n%d at +%s", f.Node, f.At)
	case NetPartition:
		return fmt.Sprintf("net-partition n%d +%s..+%s", f.Node, f.At, f.Until)
	case SlowLink:
		return fmt.Sprintf("slow-link n%d x%g +%s..+%s", f.Node, f.Mult, f.At, f.Until)
	}
	return fmt.Sprintf("%s n%d", f.Kind, f.Node)
}

// NetPartitionedError is the typed error completing a request that was
// dispatched across a partitioned link. It is the cluster-level analogue of
// serve's shed and quarantine errors: callers branch on it with errors.As.
type NetPartitionedError struct {
	Node   int
	Tenant string
}

// Error implements error.
func (e *NetPartitionedError) Error() string {
	return fmt.Sprintf("cluster: link to node n%d partitioned (tenant %s)", e.Node, e.Tenant)
}
