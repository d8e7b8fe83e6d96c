package serve

// The pool and its placement tier. A serving plane always fronts a pool of
// Config.Nodes × (GPUPartitions / Nodes) partitions: N platforms
// (cluster.BootNodes) share one simulation kernel; one serving gateway —
// arrivals, admission, batching and placement — fronts them all, and node i
// owns a contiguous block of the partition pool. A single machine is the pool
// of one node; nothing below asks which it is, except the choice of link.
//
// The gateway reaches each node over a link (cluster.Fabric). Between two or
// more nodes it is the modeled fabric: linkLatency per hop, linkGBps of
// bandwidth, host-memcpy serialization per byte. The one node of a one-node
// pool sits behind the local link instead: the hop is the PCIe latency and
// moving a payload costs nothing more (the lane's DMA charge already moves
// those bytes), so the flow-model plane prices a single machine exactly as
// it did before it knew about nodes.
//
// Placement is two-tier: tenants hash onto home nodes over a seeded
// consistent-hash ring with bounded-load overflow (cluster.Ring), and the
// pluggable policies (round-robin, least-outstanding, device-affinity) place
// each batch inside the home node's partition group. Batches cross the link
// through the replica's mailbox port with the link latency as the hop;
// serialization, bandwidth occupancy and slow-link surcharges are folded into
// the submit cost (cluster.Fabric.TransferNS); completions ride per-node
// return ports with the same hop.
//
// Cross-node failover: when a node crashes (clCrashNode) or a tenant's whole
// home pool retires, the tenant re-hashes to a surviving node (redrive). In-
// flight batches on the lost node are cancelled and replayed through the one
// evacuation (cancelled batches' events become no-ops, requests requeue
// exactly once), and admission caps tighten by the lost capacity fraction for
// rehomed tenants. With no surviving node the re-hash fails and the tenant's
// work completes with the typed pool error.
//
// No-split-brain invariant: a tenant's requests are never concurrently
// live on two nodes. The gateway maintains the ledger — liveCnt/liveNode
// per tenant, updated at dispatch, completion and cancellation — and counts
// violations in Result.SplitBrain (must be 0).
//
// Net-partition windows yield typed *cluster.NetPartitionedError on
// dispatch; completions arriving at the gateway while the link is
// partitioned park in a heal queue and flush at the heal instant.

import (
	"fmt"
	"math"

	"cronus/internal/attest"
	"cronus/internal/cluster"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// poolPart is the server's one record of a pooled (node, partition). Every
// tenant's replica on the partition points at it, so a lifecycle fact is
// stated once and flips for all tenants at the same instant. The one
// per-connection fact, down, stays on the replica: it clears at that
// replica's own reconnect instant.
type poolPart struct {
	node int
	idx  int // node-local partition index
	sp   *spm.Partition

	// pinned is the boot measurement continuous re-measurement compares
	// against; revokedAt the revocation instant (0 = never: serving starts
	// after boot, so no revocation lands at 0). Both belong to the
	// attestation gate.
	pinned    attest.Measurement
	revokedAt sim.Time

	// draining: quiescing for a planned migration — finish in-flight, take no
	// new work. released: out of service after an elastic scale-down or
	// migration, until a scale-up has re-booted it (a re-boot in progress
	// holds elState.busy, so nothing else looks at the partition meanwhile).
	// quarantined: gone for good — a failure record that tripped the
	// crash-loop policy or a revocation (the SPM failure subscription), or
	// its node crashed (clCrashNode).
	draining    bool
	released    bool
	quarantined bool
}

// retired reports whether the partition has left service for good barring
// operator or autoscaler action: quarantined or released. Retired partitions
// count against admitted capacity and are skipped by placement, rehoming
// eligibility and the pool-dead check alike.
func (pp *poolPart) retired() bool { return pp.quarantined || pp.released }

// pool is the pool shape the config asks for: the node count and the
// partitions each node owns.
func (c *Config) pool() (nodes, ppn int) {
	nodes = max(c.Nodes, 1)
	return nodes, c.GPUPartitions / nodes
}

// clState is the pool's shape and placement state, all of it gateway-side.
type clState struct {
	nodes int
	ppn   int // partitions per node

	fab  *cluster.Fabric
	ring *cluster.Ring

	alive    []bool
	aliveCnt int

	compl []*sim.Port[*batch] // per-node completion return ports
	healQ [][]*batch          // completions parked during a net-partition

	splitBrain uint64
	events     []string
}

// validateCluster rejects pool shapes and node faults the plane cannot model.
func validateCluster(cfg Config) error {
	nodes, _ := cfg.pool()
	if nodes > 16 {
		return fmt.Errorf("serve: at most 16 nodes, got %d", nodes)
	}
	if err := CheckShardLayout(cfg.Shards, cfg.GPUPartitions, nodes); err != nil {
		return err
	}
	if len(cfg.NodeFaults) > 0 && cfg.Shards < 2 {
		return fmt.Errorf("serve: NodeFaults require the flow-model plane (Shards >= 2)")
	}
	for i, f := range cfg.NodeFaults {
		if f.Node < 0 || f.Node >= nodes {
			return fmt.Errorf("serve: NodeFaults[%d] targets node %d of %d", i, f.Node, nodes)
		}
		switch f.Kind {
		case cluster.NodeCrash:
			if f.At <= 0 {
				return fmt.Errorf("serve: NodeFaults[%d] (%s) needs At > 0", i, f.Kind)
			}
		case cluster.NetPartition, cluster.SlowLink:
			if f.At <= 0 || f.Until <= f.At {
				return fmt.Errorf("serve: NodeFaults[%d] (%s) needs 0 < At < Until", i, f.Kind)
			}
			if f.Kind == cluster.SlowLink && f.Mult < 1 {
				return fmt.Errorf("serve: NodeFaults[%d] slow-link needs Mult >= 1, got %g", i, f.Mult)
			}
		default:
			return fmt.Errorf("serve: NodeFaults[%d] has unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// clBoot builds the pool state — link, placement ring, liveness and, on the
// flow-model plane, the per-node completion return ports — from the validated
// config. This is the one place that asks whether the pool has one node: the
// answer picks the link's parameters (see the file comment).
func (srv *Server) clBoot() error {
	nodes, ppn := srv.cfg.pool()
	c := srv.pl.Costs
	latency, gbps, serPerByte := linkLatency, float64(linkGBps), c.MemcpyPerByte
	if nodes == 1 {
		latency, gbps, serPerByte = c.PCIeLatency, math.Inf(1), 0
	}
	fab, err := cluster.NewFabric(nodes, latency, gbps, serPerByte)
	if err != nil {
		return err
	}
	ring, err := cluster.NewRing(nodes, 64, srv.cfg.Seed)
	if err != nil {
		return err
	}
	alive := make([]bool, nodes)
	for i := range alive {
		alive[i] = true
	}
	srv.cl = &clState{
		nodes:    nodes,
		ppn:      ppn,
		fab:      fab,
		ring:     ring,
		alive:    alive,
		aliveCnt: nodes,
		healQ:    make([][]*batch, nodes),
	}
	if !srv.flow {
		return nil
	}
	// A completion crossing node→gateway pays the propagation delay in the
	// port hop; the serialization/bandwidth cost went into submitNS.
	for n := 0; n < nodes; n++ {
		n := n
		port := sim.NewPort[*batch](srv.pl.K, 0, fmt.Sprintf("serve-compl-n%d", n), latency)
		port.SetHandler(func(at sim.Time, b *batch) { srv.clComplArrive(n, at, b) })
		srv.cl.compl = append(srv.cl.compl, port)
	}
	return nil
}

// clBound is the bounded-load cap: ceil(factor · tenants / nodes).
func clBound(factor float64, tenants, nodes int) int {
	return int(math.Ceil(factor * float64(tenants) / float64(nodes)))
}

// clAssignHomes homes every tenant at boot: clockwise walk with the bounded-
// load cap, earlier tenants claiming capacity first.
func (srv *Server) clAssignHomes() {
	names := make([]string, len(srv.tenants))
	for i, t := range srv.tenants {
		names[i] = t.spec.Name
	}
	bound := clBound(srv.cfg.HashBound, len(names), srv.cl.nodes)
	for i, home := range srv.cl.ring.Assign(names, bound) {
		srv.tenants[i].home, srv.tenants[i].home0 = home, home
	}
}

// clComplArrive is the per-node completion return handler on the gateway.
// A completion landing while the node's link is partitioned parks in the
// heal queue; the queue flushes at the heal instant (re-arming if another
// partition window is already in force then).
func (srv *Server) clComplArrive(n int, at sim.Time, b *batch) {
	if b.cancelled {
		return
	}
	if srv.cl.fab.PartitionedAt(n, at) {
		if len(srv.cl.healQ[n]) == 0 {
			heal := srv.cl.fab.HealAt(n, at)
			srv.anchor.CallAt(heal, func() { srv.clFlushHeal(n, heal) })
		}
		srv.cl.healQ[n] = append(srv.cl.healQ[n], b)
		return
	}
	srv.shDone(at, b)
}

// clFlushHeal delivers the completions a net-partition parked, in arrival
// order, at the heal instant.
func (srv *Server) clFlushHeal(n int, at sim.Time) {
	q := srv.cl.healQ[n]
	srv.cl.healQ[n] = nil
	for _, b := range q {
		srv.clComplArrive(n, at, b)
	}
}

// clArmFaults registers the scheduled node faults: net-partition and
// slow-link windows are static fabric state fixed here, each node crash gets
// an injector proc.
func (srv *Server) clArmFaults(p *sim.Proc) {
	start := p.Now()
	for i, f := range srv.cfg.NodeFaults {
		switch f.Kind {
		case cluster.NetPartition:
			srv.cl.fab.AddPartition(f.Node, start+sim.Time(f.At), start+sim.Time(f.Until))
		case cluster.SlowLink:
			srv.cl.fab.AddSlowLink(f.Node, f.Mult, start+sim.Time(f.At), start+sim.Time(f.Until))
		case cluster.NodeCrash:
			f := f
			srv.pl.K.Spawn(fmt.Sprintf("serve-node-fault-%d", i), func(p *sim.Proc) {
				p.Sleep(f.At)
				srv.clCrashNode(p, f.Node)
			})
		}
	}
}

// clCrashNode kills a whole node: its partitions quarantine permanently (the
// machine is gone — this is not a restartable proceed-trap), every batch in
// flight there replays exactly once (evacuate), and each tenant homed on the
// node re-hashes to a survivor (redrive).
func (srv *Server) clCrashNode(p *sim.Proc, n int) {
	cl := srv.cl
	if !cl.alive[n] {
		return
	}
	now := p.Now()
	cl.alive[n] = false
	cl.aliveCnt--
	cl.events = append(cl.events, fmt.Sprintf("node n%d crashed at %s", n, sim.Duration(now)))
	for _, pp := range srv.parts[n*cl.ppn : (n+1)*cl.ppn] {
		pp.quarantined = true
	}
	for _, t := range srv.tenants {
		srv.evacuate(now, t, nil, t.reps[n*cl.ppn:(n+1)*cl.ppn]...)
		srv.redrive(now, t, "node-crash")
	}
}

// clHomeUnusable reports whether the tenant's home partition group has
// retired — the trigger for cross-node failover (a single-partition failover
// must not move the tenant).
func (srv *Server) clHomeUnusable(t *tenant) bool { return allRetired(srv.placementSet(t)) }

// clRehome re-hashes a tenant onto a surviving node: the clockwise walk
// skips dead nodes and nodes where the tenant's pool has fully retired
// (quarantined or released), with the bounded-load cap recomputed over the
// survivors. On success the backlog flushes to the new home. Returns false
// when no eligible node remains.
func (srv *Server) clRehome(now sim.Time, t *tenant, why string) bool {
	cl := srv.cl
	eligible := make([]bool, cl.nodes)
	nEligible := 0
	for n := 0; n < cl.nodes; n++ {
		if cl.alive[n] && !allRetired(t.reps[n*cl.ppn:(n+1)*cl.ppn]) {
			eligible[n] = true
			nEligible++
		}
	}
	if nEligible == 0 {
		return false
	}
	loads := make([]int, cl.nodes)
	for _, u := range srv.tenants {
		if u != t && eligible[u.home] {
			loads[u.home]++
		}
	}
	bound := clBound(srv.cfg.HashBound, len(srv.tenants), nEligible)
	home := cl.ring.Home(t.spec.Name, eligible, loads, bound)
	if home < 0 {
		return false
	}
	old := t.home
	t.home = home
	t.rehomed = true
	cl.events = append(cl.events, fmt.Sprintf("tenant %s rehomed n%d -> n%d (%s) at %s",
		t.spec.Name, old, home, why, sim.Duration(now)))
	srv.shFlushBacklog(now, t)
	return true
}
