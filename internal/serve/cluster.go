package serve

// The global placement tier: the serving plane's cluster mode, selected by
// Config.Nodes >= 2. N platforms (cluster.BootNodes) share one simulation
// kernel; one serving gateway — arrivals, admission, batching and placement —
// fronts them all, and node i owns a contiguous block of the partition pool.
//
// Placement is two-tier: tenants hash onto home nodes over a seeded
// consistent-hash ring with bounded-load overflow (cluster.Ring), and the
// existing pluggable policies (round-robin, least-outstanding,
// device-affinity) place each batch inside the home node's partition group.
// Batches cross the fabric through the replica's mailbox port with the
// link latency as the hop; serialization, bandwidth occupancy and slow-link
// surcharges are folded into the submit cost (cluster.Fabric.TransferNS);
// completions ride per-node return ports with the same hop.
//
// Cross-node failover: when a node crashes (clCrashNode) or a tenant's whole
// home pool quarantines, the tenant re-hashes to a surviving node. In-flight
// batches on the lost node are cancelled and replayed through the same
// completion accounting the single-node plane uses (cancelled batches'
// events become no-ops, requests requeue exactly once), and admission caps
// tighten by the lost capacity fraction for rehomed tenants.
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

	"cronus/internal/cluster"
	"cronus/internal/sim"
)

// clState is the serving plane's cluster-mode state, all of it gateway-side.
type clState struct {
	nodes int
	ppn   int // partitions per node

	fab  *cluster.Fabric
	ring *cluster.Ring
	// loads/bound drive the boot-time bounded-load assignment; loads is
	// also recomputed on rehome.
	loads []int
	bound int

	alive    []bool
	aliveCnt int

	compl []*sim.Port[*batch] // per-node completion return ports
	healQ [][]*batch          // completions parked during a net-partition

	splitBrain uint64
	events     []string
}

// validateCluster rejects cluster configurations the plane cannot model.
func validateCluster(cfg Config) error {
	if cfg.Nodes > 16 {
		return fmt.Errorf("serve: at most 16 nodes, got %d", cfg.Nodes)
	}
	if err := CheckShardLayout(cfg.Shards, cfg.GPUPartitions, cfg.Nodes); err != nil {
		return err
	}
	for i, f := range cfg.NodeFaults {
		if f.Node < 0 || f.Node >= cfg.Nodes {
			return fmt.Errorf("serve: NodeFaults[%d] targets node %d of %d", i, f.Node, cfg.Nodes)
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

// clBoot builds the cluster state — fabric, placement ring, liveness — from
// the validated config. Runs before shBoot, which builds the per-node
// completion ports.
func (srv *Server) clBoot() error {
	nodes := len(srv.plats)
	fab, err := cluster.NewFabric(nodes, linkLatency, linkGBps, srv.pl.Costs.MemcpyPerByte)
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
		ppn:      srv.cfg.GPUPartitions / nodes,
		fab:      fab,
		ring:     ring,
		loads:    make([]int, nodes),
		bound:    clBound(srv.cfg.HashBound, len(srv.cfg.Tenants), nodes),
		alive:    alive,
		aliveCnt: nodes,
		healQ:    make([][]*batch, nodes),
	}
	return nil
}

// clBound is the bounded-load cap: ceil(factor · tenants / nodes).
func clBound(factor float64, tenants, nodes int) int {
	return int(math.Ceil(factor * float64(tenants) / float64(nodes)))
}

// clAssignHome homes one tenant at boot: clockwise walk with the bounded-
// load cap, earlier tenants claiming capacity first (ring.Assign order).
func (srv *Server) clAssignHome(t *tenant) {
	t.home = srv.cl.ring.Home(t.spec.Name, nil, srv.cl.loads, srv.cl.bound)
	srv.cl.loads[t.home]++
	t.home0 = t.home
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

// clCrashNode kills a whole node: its replicas quarantine permanently (the
// machine is gone — this is not a restartable proceed-trap), every batch in
// flight there is cancelled and requeued exactly once (shCancelInflight),
// and each tenant homed on the node re-hashes to a survivor.
func (srv *Server) clCrashNode(p *sim.Proc, n int) {
	cl := srv.cl
	if !cl.alive[n] {
		return
	}
	now := p.Now()
	cl.alive[n] = false
	cl.aliveCnt--
	cl.events = append(cl.events, fmt.Sprintf("node n%d crashed at %s", n, sim.Duration(now)))
	for _, t := range srv.tenants {
		lost := t.reps[n*cl.ppn : (n+1)*cl.ppn]
		for _, rep := range lost {
			rep.down = true
			rep.quarantined = true
		}
		srv.shCancelInflight(t, lost...)
		if t.home == n && !srv.clRehome(now, t, "node-crash") {
			srv.shFailBacklog(now, t) // no survivor can take the tenant
		}
	}
}

// clHomeUnusable reports whether every replica in the tenant's home
// partition group has retired (quarantined, or released by an elastic
// migration/scale-down) — the trigger for cross-node failover. Replicas
// that are merely down (transient proceed-trap recovery) do not count:
// those heal in bounded time and rehoming on them would make
// single-partition failovers diverge from the single-node plane.
func (srv *Server) clHomeUnusable(t *tenant) bool {
	for _, rep := range srv.placementSet(t) {
		if !rep.retired() {
			return false
		}
	}
	return true
}

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
		if !cl.alive[n] {
			continue
		}
		for _, rep := range t.reps[n*cl.ppn : (n+1)*cl.ppn] {
			if !rep.retired() {
				eligible[n] = true
				nEligible++
				break
			}
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
