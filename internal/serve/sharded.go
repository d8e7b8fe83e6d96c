package serve

// The flow-model data plane: what happens to an admitted request when
// Config.Shards >= 2.
//
// Arrival, admission, request identity and accounting are the one intake both
// planes share (loadgen.go, admission.go): the same CallAt arrival chains
// call the same submit, which ends in a per-plane enqueue. The planes part there. The classic plane hands the request to a
// dispatcher proc and an executed worker, burning a proc handshake (park +
// wake, ~1µs of host time) for every queue push, batch window, replica
// enqueue and sRPC doorbell — fine at Fig.-8 scale, but at 90k requests per
// virtual second the host time of one 20ms window is dominated by scheduler
// churn, not by the model. The flow-model plane keeps the control plane real
// (platform boot, per-tenant sessions, CUDA mEnclave creation with local
// attestation, multi-ring sRPC streams with zero-copy arenas, SPM failure
// subscription and reconnect) and replaces the machinery behind submit with
// an event-driven flow model over the exact same cost surface:
//
//   - dynamic batching runs inline in the arrival event (shBatchIn:
//     single-class FIFO batches, closed at MaxBatch or BatchWindow by a
//     timer that carries the batch it was armed for);
//   - a closed batch crosses to its replica through a mailbox Port whose hop
//     is the pool link's latency (PCIe to the one local node, the fabric
//     link between several — cluster.go);
//   - the lane handler serializes service on one of the replica's modeled
//     rings and charges the fused zero-copy path: RingPush + SpanCheck on
//     the host side, RingPoll + SpanCheck + two RPC dispatches + payload
//     DMA + kernel dispatch + per-item device work on the lane
//     (srpc.CallZC's cost surface; see zerocopy.go);
//   - completion crosses back through the node's return Port with the same
//     hop, whose inline handler finalizes every request of the batch —
//     histograms, SLO scoring, drain bookkeeping.
//
// Everything runs on the plain sim.Kernel — one event queue, one clock — so
// handlers and control-plane procs interleave in the kernel's total event
// order and share state without locking. The server's parked anchor proc owns
// every CallAt chain and Port send. The value of Config.Shards is
// unobservable beyond selecting this plane (asserted by the tests).
//
// Faults. The only failure source the plane admits is the FailAt injector
// (Supervise is validated out; a RequestTimeout is modeled as a lane
// deadline — a batch whose service time exceeds it burns maxRetries+1
// timeout windows plus the doubling retryBackoff gaps on its lane and
// completes with the typed TimeoutError, matching the classic watchdog's
// accounting). Capacity has one lifecycle (DESIGN.md §14.4): in-flight
// batches on a dead replica are evacuated (their pending lane/completion
// events become no-ops) and their requests requeued to the tenant backlog, a
// recovery proc runs the classic worker's failover body — wait out the SPM
// restart, reconnect for real — then redrive re-places the backlog. An
// attestation revocation (attestor.go) evacuates with a shed error instead
// (typed *attest.RevokedError, never requeued — results from a partition
// with a stale measurement are untrusted) before draining the partition
// through the quarantine path.

import (
	"fmt"

	"cronus/internal/cluster"
	"cronus/internal/sim"
)

// ShardLayoutError is the typed usage error for a pool layout that cannot be
// mapped: several nodes run on the flow-model plane only (Shards >= 2) and
// every node owns an equal partition pool, so the partition count must be a
// positive multiple of the node count. CLIs report it and exit with a usage
// status instead of booting a lopsided plane.
type ShardLayoutError struct {
	Shards     int
	Partitions int
	Nodes      int
}

// Error implements error.
func (e *ShardLayoutError) Error() string {
	return fmt.Sprintf("serve: layout -shards %d -partitions %d -nodes %d: a cluster needs -shards >= 2 and a partition count that is a positive multiple of the node count",
		e.Shards, e.Partitions, e.Nodes)
}

// CheckShardLayout validates a shard/partition/node combination: with
// nodes >= 2 the flow-model plane must be selected and the partitions must
// divide evenly over the nodes. A pool of one node is unconstrained.
func CheckShardLayout(shards, partitions, nodes int) error {
	if nodes >= 2 && (shards < 2 || partitions < 1 || partitions%nodes != 0) {
		return &ShardLayoutError{Shards: shards, Partitions: partitions, Nodes: nodes}
	}
	return nil
}

// validateSharded rejects configurations the flow-model plane does not
// model. The checks run after defaults(), on every New.
func validateSharded(cfg Config) error {
	if cfg.Shards < 2 {
		return nil
	}
	switch {
	case cfg.Trace:
		return fmt.Errorf("serve: the flow-model plane does not support Trace (use Shards <= 1)")
	case cfg.Supervise:
		return fmt.Errorf("serve: the flow-model plane does not support Supervise (use Shards <= 1)")
	}
	for _, spec := range cfg.Tenants {
		for _, wc := range spec.Mix {
			if wc.Bench != nil {
				return fmt.Errorf("serve: the flow-model plane serves batchable inference classes only; class %s of tenant %s is a rodinia pass",
					wc.Name, spec.Name)
			}
		}
	}
	return nil
}

// shInitReplica attaches the lanes and the mailbox port to a replica being
// built (before its first connect). The gateway→node crossing rides the pool
// link: the port hop is its latency.
func (srv *Server) shInitReplica(rep *replica) {
	rep.lanes = make([]sim.Time, lanesPerReplica)
	rep.lanePort = sim.NewPort[*batch](srv.pl.K, 0,
		fmt.Sprintf("serve-lane-%s-n%d-p%d", rep.t.spec.Name, rep.part.node, rep.part.idx),
		srv.cl.fab.Latency)
	rep.lanePort.SetHandler(func(at sim.Time, b *batch) {
		srv.shLaneArrive(rep, at, b)
	})
}

// shBatchIn is the flow-model end of submit. It runs dynamic batching
// inline: append to the tenant's open batch when the class matches, close it
// at MaxBatch, close it early on a class change (FIFO order must hold), and
// arm a window timer when a new batch opens. The timer carries its batch and
// is a no-op unless that very batch is still the open one — batches are never
// reused, so the pointer cannot come to mean a later batch.
func (srv *Server) shBatchIn(now sim.Time, t *tenant, r *Request) {
	if t.shOpen != nil {
		if t.shOpen.class == r.class {
			t.shOpen.reqs = append(t.shOpen.reqs, r)
			if len(t.shOpen.reqs) >= srv.cfg.MaxBatch {
				srv.shCloseBatch(now, t)
			} else {
				t.q.depth.Set(int64(len(t.shOpen.reqs)))
			}
			return
		}
		srv.shCloseBatch(now, t)
	}
	t.shOpen = srv.newBatch(t, r.class, srv.newSlots(r))
	if srv.cfg.MaxBatch <= 1 {
		srv.shCloseBatch(now, t)
		return
	}
	t.q.depth.Set(1)
	srv.anchor.CallAtArg(now+sim.Time(srv.cfg.BatchWindow), srv.windowFn, t.shOpen)
}

// shWindowExpired is the window timer (Server.windowFn): close the batch it
// was armed for, if that batch is still open.
func (srv *Server) shWindowExpired(b *batch) {
	if b.t.shOpen == b {
		srv.shCloseBatch(srv.pl.K.Now(), b.t)
	}
}

// shSeal takes the tenant's open batch: from here no arrival joins it and its
// window timer no longer matches.
func shSeal(t *tenant) *batch {
	b := t.shOpen
	t.shOpen = nil
	t.q.depth.Set(0)
	return b
}

// shCloseBatch seals the open batch and dispatches it.
func (srv *Server) shCloseBatch(now sim.Time, t *tenant) {
	srv.shDispatch(now, t, shSeal(t))
}

// shDispatch places one sealed batch: pick a replica under the configured
// policy, round-robin a lane, charge the host-side submit cost (span check
// of the arena write plus the ring push) and send the batch through the
// replica's mailbox port. With no usable replica the batch parks in the
// tenant backlog (re-driven after recovery) — unless the whole pool has
// retired, which completes the requests with the typed error.
func (srv *Server) shDispatch(now sim.Time, t *tenant, b *batch) {
	rep := srv.pick(t)
	if rep == nil && srv.clHomeUnusable(t) {
		// The tenant's whole home-node placement set has retired: re-hash
		// onto a surviving node before giving up on the batch.
		if srv.clRehome(now, t, "pool-quarantined") {
			rep = srv.pick(t)
		}
	}
	if rep == nil {
		if allRetired(t.reps) {
			srv.finishBatch(b, now, &PoolQuarantinedError{Tenant: t.spec.Name})
			return
		}
		t.shBacklog = append(t.shBacklog, b)
		return
	}
	srv.shDispatchTo(now, t, b, rep)
}

// shDispatchTo ships one sealed batch to a chosen replica: fabric check,
// attestation gate, submit-cost pricing, split-brain ledger, mailbox send.
// shDispatch calls it after policy pick; the elastic drain-race injector
// calls it directly to force a batch onto a quiescing replica the policies
// would skip.
func (srv *Server) shDispatchTo(now sim.Time, t *tenant, b *batch, rep *replica) {
	node := rep.part.node
	if srv.cl.fab.PartitionedAt(node, now) {
		// The gateway→node link is partitioned: the send fails with the
		// typed fabric error instead of silently vanishing into the cut.
		srv.finishBatch(b, now, &cluster.NetPartitionedError{Node: node, Tenant: t.spec.Name})
		return
	}
	// Attestation gate: a live ticket resumes for one MAC, a cold session
	// pays the (cached, coalesced) quote verification; either way the delay
	// folds into the host-side submit cost. A revoked partition sheds the
	// batch with the typed error instead of dispatching untrusted work.
	attNS, aerr := srv.attestGate(t, rep, now)
	if aerr != nil {
		srv.finishBatch(b, now, aerr)
		return
	}
	b.rep = rep
	b.lane = rep.nextLane % len(rep.lanes)
	rep.nextLane++
	// Link transfer: serialization + bandwidth (+ slow-link penalty) for the
	// batch payload — nothing on the local link, whose bytes the lane's DMA
	// charge already moves; the base propagation delay rides the port hop.
	// The no-split-brain ledger also advances here: a dispatch to a node
	// other than the one carrying the tenant's live requests is a split
	// brain.
	b.submitNS = attNS + srv.pl.Costs.SpanCheck + srv.pl.Costs.RingPush +
		srv.cl.fab.TransferNS(node, inBytes*len(b.reqs), now)
	if t.liveCnt > 0 && t.liveNode != node {
		srv.cl.splitBrain++
	}
	t.liveNode = node
	t.liveCnt += len(b.reqs)
	rep.outstanding += len(b.reqs)
	rep.inflightB = append(rep.inflightB, b)
	rep.lanePort.Send(srv.anchor, b)
}

// shLaneArrive is the replica's mailbox handler: serialize the batch
// on its lane and schedule the completion crossing at the service-done
// instant. The service time is the fused zero-copy path of srpc.CallZC —
// ring poll, arena span check, the copy and exec dispatches, the payload
// DMA and the batch's device work — plus the host-side submit cost carried
// on the batch.
func (srv *Server) shLaneArrive(rep *replica, at sim.Time, b *batch) {
	if b.cancelled {
		return
	}
	c := srv.pl.Costs
	n := len(b.reqs)
	service := b.submitNS +
		c.RingPoll + c.SpanCheck + 2*c.RPCDispatch +
		c.DMA(inBytes*n) +
		c.KernelDispatch + b.class.itemNS*sim.Duration(n)
	if to := srv.cfg.RequestTimeout; to > 0 && service > to {
		// Lane-deadline model of the classic watchdog: a batch whose service
		// exceeds the timeout occupies its lane for maxRetries+1 timeout
		// windows plus the maxRetries doubling backoff gaps between them
		// (retryBackoff·(2^maxRetries − 1) in all), then completes with the
		// typed TimeoutError. The accounting is applied in shDone.
		b.attempts = maxRetries + 1
		service = sim.Duration(b.attempts)*to + retryBackoff*(1<<maxRetries-1)
	}
	done := max(at, rep.lanes[b.lane]) + sim.Time(service)
	rep.lanes[b.lane] = done
	srv.batches++
	srv.batchReqs += uint64(n)
	srv.anchor.CallAtArg(done, srv.laneDoneFn, b)
}

// shLaneDone is the lane's service-done event (Server.laneDoneFn): the batch
// starts its crossing back to the gateway on its node's return port.
func (srv *Server) shLaneDone(b *batch) {
	if b.cancelled {
		return
	}
	srv.cl.compl[b.rep.part.node].Send(srv.anchor, b)
}

// shDone is the completion handler: one port event finalizes the
// whole batch inline — no worker wakeup, no drain polling.
func (srv *Server) shDone(at sim.Time, b *batch) {
	if b.cancelled {
		return
	}
	if revAt := b.rep.part.revokedAt; revAt > 0 && at >= revAt {
		// Invariant counter: a completion landing after its partition's
		// revocation would mean untrusted results leaked past the drain.
		// Revocation cancels everything in flight, so this must stay 0 —
		// the chaos harness asserts it.
		srv.at.ctrPostRevoke.Inc()
	}
	t := b.t
	b.rep.outstanding -= len(b.reqs)
	b.rep.dropInflight(b)
	t.liveCnt -= len(b.reqs)
	var err error
	if b.attempts > 0 {
		// The lane-deadline model resolved this batch as a watchdog timeout:
		// apply the classic plane's accounting — one timeout per attempt,
		// one retry record per attempt after the first.
		err = &TimeoutError{Tenant: t.spec.Name, Attempts: b.attempts}
		t.timeouts += uint64(b.attempts)
		srv.ctrTimeouts.Add(uint64(b.attempts))
		if retries := b.attempts - 1; retries > 0 {
			t.retried += uint64(retries * len(b.reqs))
			srv.ctrRetries.Add(uint64(retries))
			for _, r := range b.reqs {
				r.Retries += retries
			}
		}
	}
	srv.finishBatch(b, at, err)
}

// dropInflight removes a batch from the replica's in-flight set.
func (rep *replica) dropInflight(b *batch) {
	for i, ib := range rep.inflightB {
		if ib == b {
			rep.inflightB = append(rep.inflightB[:i], rep.inflightB[i+1:]...)
			return
		}
	}
}

// shReplicaDown is the flow-model half of the SPM failure subscription: the
// replica's in-flight work replays (evacuate), then a recovery proc runs the
// classic worker's failover — wait out the SPM's proceed-trap recovery,
// settle, real OpenCUDA reconnect: rings, arenas and executors in the
// partition's new epoch — and re-drives the tenant's backlog, whether the
// replica came back or its partition quarantined.
func (srv *Server) shReplicaDown(rep *replica) {
	t := rep.t
	srv.evacuate(srv.pl.K.Now(), t, nil, rep)
	name := fmt.Sprintf("serve-failover-%s-n%d-p%d", t.spec.Name, rep.part.node, rep.part.idx)
	srv.pl.K.Spawn(name, func(p *sim.Proc) {
		rep.failover(p)
		srv.redrive(p.Now(), t, "pool-quarantined")
	})
}

// evacuate is the one way work leaves a replica early — failover, node crash,
// a migration's drain deadline and revocation all call it. Every batch in
// flight on the given replicas is cancelled (its pending lane and completion
// events become no-ops) and backed out of the replica's outstanding count and
// the split-brain ledger, and the lanes reset to idle. With shed nil the
// batches replay: each is requeued to the front of the tenant backlog as a
// fresh batch (composition preserved, FIFO order kept) with the per-request
// replay accounting applied. Otherwise they complete at now with shed.
// Returns the number of requests replayed.
func (srv *Server) evacuate(now sim.Time, t *tenant, shed error, reps ...*replica) int {
	var requeued []*batch
	replayed := 0
	for _, rep := range reps {
		for _, b := range rep.inflightB {
			b.cancelled = true
			rep.outstanding -= len(b.reqs)
			t.liveCnt -= len(b.reqs)
			if shed != nil {
				srv.finishBatch(b, now, shed)
				continue
			}
			for _, r := range b.reqs {
				r.Replays++
			}
			t.replayed += uint64(len(b.reqs))
			replayed += len(b.reqs)
			requeued = append(requeued, srv.newBatch(t, b.class, b.reqs))
		}
		rep.inflightB = nil
		clear(rep.lanes)
	}
	if len(requeued) > 0 {
		t.shBacklog = append(requeued, t.shBacklog...)
	}
	return replayed
}

// redrive is the one way a tenant's backlog moves after capacity left or came
// back: re-home the tenant when its home group has retired (clRehome flushes
// the backlog at the new home), fail the backlog with the typed pool error
// when the whole pool has retired (no replica can ever take it, and the drain
// must not be stranded), and otherwise flush it — a batch that still finds no
// usable replica parks again, in the same order.
func (srv *Server) redrive(now sim.Time, t *tenant, why string) {
	switch {
	case srv.clHomeUnusable(t) && srv.clRehome(now, t, why):
		// Flushed at the new home.
	case allRetired(t.reps):
		backlog := t.shBacklog
		t.shBacklog = nil
		err := &PoolQuarantinedError{Tenant: t.spec.Name}
		for _, b := range backlog {
			srv.finishBatch(b, now, err)
		}
	default:
		srv.shFlushBacklog(now, t)
	}
}

// shFlushBacklog re-dispatches every parked batch of the tenant, oldest
// first. Batches that still find no usable replica land back in the backlog.
func (srv *Server) shFlushBacklog(now sim.Time, t *tenant) {
	backlog := t.shBacklog
	t.shBacklog = nil
	for _, b := range backlog {
		srv.shDispatch(now, t, b)
	}
}
