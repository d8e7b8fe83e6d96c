package serve

import (
	"fmt"

	"cronus/internal/otrace"
	"cronus/internal/sim"
)

// This file is the scheduler: one dispatcher proc per tenant pulls admitted
// requests, forms dynamic batches, and places them on replicas under the
// configured policy.

// batch is one placement unit: same tenant, same work class, FIFO order.
// The fields below t belong to the flow-model plane (sharded.go), which
// routes batch pointers through ports: rep is the replica serving the batch,
// lane the modeled ring, submitNS the host-side submit cost folded into lane
// service, and cancelled neuters the pending lane/completion events of a
// batch requeued by a failover.
type batch struct {
	class *workClass
	reqs  []*Request
	t     *tenant

	rep       *replica
	lane      int
	submitNS  sim.Duration
	cancelled bool

	// attempts is set by the lane-deadline model when the batch's
	// service time exceeds RequestTimeout: the number of watchdog attempts
	// (maxRetries+1) the lane burned before the batch resolved as a timeout.
	attempts int
}

// newBatch carves a batch of the tenant and class over the given request
// storage. A batch is never handed out twice: pending events refer to their
// batch by pointer (a cancelled batch's events are no-ops, an open batch's
// pointer is its window timer's generation), so storage that came back would
// let a stale event act on a stranger.
func (srv *Server) newBatch(t *tenant, cl *workClass, reqs []*Request) *batch {
	b := &srv.batchArena.take(1)[0]
	b.class, b.reqs, b.t = cl, reqs, t
	return b
}

// newSlots carves a batch's request storage — room for exactly MaxBatch, so
// filling a batch never regrows it — holding its first request.
func (srv *Server) newSlots(first *Request) []*Request {
	return append(srv.slotArena.take(srv.cfg.MaxBatch)[:0], first)
}

// startDispatchers spawns the per-tenant dispatcher procs.
func (srv *Server) startDispatchers() {
	for _, t := range srv.tenants {
		t := t
		srv.pl.K.Spawn("serve-dispatch-"+t.spec.Name, func(p *sim.Proc) {
			srv.dispatch(p, t)
		})
	}
}

// dispatch is the dispatcher body: pop the queue head, hold a batch window
// open for more same-class arrivals (dynamic batching), then place the
// batch. The window closes at MaxBatch requests or BatchWindow after the
// first request, whichever comes first; general-compute (rodinia) classes
// are unbatchable and always ship alone.
func (srv *Server) dispatch(p *sim.Proc, t *tenant) {
	for {
		first := t.q.waitFirst(p)
		srv.mark(first, otrace.StageBatch, p.Now())
		b := srv.newBatch(t, first.class, srv.newSlots(first))
		if first.class.spec.Graph != nil && srv.cfg.MaxBatch > 1 {
			deadline := p.Now() + sim.Time(srv.cfg.BatchWindow)
			for len(b.reqs) < srv.cfg.MaxBatch {
				if next := t.q.popMatching(b.class); next != nil {
					srv.mark(next, otrace.StageBatch, p.Now())
					b.reqs = append(b.reqs, next)
					continue
				}
				// Head is a different class (close the batch so FIFO order
				// holds) or the queue is empty (wait out the window).
				if t.q.items.Len() > 0 {
					break
				}
				remaining := sim.Duration(deadline - p.Now())
				if remaining <= 0 {
					break
				}
				t.q.batching = p
				interrupted := p.SleepInterruptible(remaining)
				t.q.batching = nil
				if !interrupted {
					break
				}
			}
		}
		rep, err := srv.place(p, t, b)
		if err != nil {
			// No usable replica can ever take this batch (the whole pool
			// is quarantined): complete the admitted requests with the
			// typed error so conservation holds instead of polling
			// forever.
			srv.finishBatch(b, p.Now(), err)
			continue
		}
		// Attestation gate (attestor.go): resume on a live session ticket
		// (one MAC) or attest cold through the verification cache, sleeping
		// the delay on the dispatcher; a revoked partition sheds the batch
		// with the typed error instead of dispatching untrusted work.
		if d, aerr := srv.attestGate(t, rep, p.Now()); aerr != nil {
			srv.finishBatch(b, p.Now(), aerr)
			continue
		} else if d > 0 {
			p.Sleep(d)
		}
		srv.markBatch(b, otrace.StageReplica, p.Now())
		rep.enqueue(b)
	}
}

// PoolQuarantinedError is the typed completion error of an admitted request
// that can never be placed: every replica of its tenant sits on a
// quarantined partition, so no reconnect will revive capacity until an
// operator releases one. It counts as Failed in the tenant accounting.
type PoolQuarantinedError struct {
	Tenant string
}

// Error implements error.
func (e *PoolQuarantinedError) Error() string {
	return fmt.Sprintf("serve: tenant %s has no usable replica (all partitions quarantined)", e.Tenant)
}

// place picks a replica for the batch under the configured policy, waiting
// out transient outages (every replica down, e.g. mid-failover on a one-
// partition pool) by polling: the batch is already popped, so it must land
// somewhere. A pool that is entirely quarantined is not transient — place
// gives up with a *PoolQuarantinedError instead of polling forever.
func (srv *Server) place(p *sim.Proc, t *tenant, b *batch) (*replica, error) {
	for {
		if rep := srv.pick(t); rep != nil {
			srv.batches++
			srv.batchReqs += uint64(len(b.reqs))
			return rep, nil
		}
		if allRetired(t.reps) {
			return nil, &PoolQuarantinedError{Tenant: t.spec.Name}
		}
		p.Sleep(100 * sim.Microsecond)
	}
}

// allRetired reports whether every one of the replicas sits on a retired
// partition (poolPart.retired). Retired capacity does not come back without
// operator (or autoscaler) action, so such a set is not transiently
// unavailable — it is gone. Replicas that are merely down (transient
// proceed-trap recovery) do not count: those heal in bounded time.
func allRetired(reps []*replica) bool {
	for _, rep := range reps {
		if !rep.part.retired() {
			return false
		}
	}
	return true
}

// placementSet is the replica slice the placement policy ranges over: the
// tenant's home-node block (node-local placement — the ring picks the node,
// the policies pick within it).
func (srv *Server) placementSet(t *tenant) []*replica {
	return t.reps[t.home*srv.cl.ppn : (t.home+1)*srv.cl.ppn]
}

// pick applies the placement policy over the tenant's live replicas.
// Quarantined, released and draining replicas are skipped everywhere; a
// DeviceAffinity tenant whose pinned partition has retired or is quiescing
// degrades to least-outstanding over the surviving replicas (re-placing load
// beats refusing it — affinity is a performance preference, quarantine,
// release and quiesce availability facts).
func (srv *Server) pick(t *tenant) *replica {
	reps := srv.placementSet(t)
	switch srv.cfg.Policy {
	case DeviceAffinity:
		rep := reps[t.idx%len(reps)]
		if rep.part.retired() || rep.part.draining {
			return pickLeastOutstanding(reps)
		}
		if rep.down {
			return nil
		}
		return rep
	case RoundRobin:
		for i := 0; i < len(reps); i++ {
			rep := reps[t.rrNext%len(reps)]
			t.rrNext++
			if !rep.unplaceable() {
				return rep
			}
		}
		return nil
	case LeastOutstanding:
		return pickLeastOutstanding(reps)
	default:
		panic(fmt.Sprintf("serve: unknown policy %q", srv.cfg.Policy))
	}
}

// pickLeastOutstanding picks the usable replica with the fewest queued or
// executing requests (ties: lowest partition index).
func pickLeastOutstanding(reps []*replica) *replica {
	var best *replica
	for _, rep := range reps {
		if rep.unplaceable() {
			continue
		}
		if best == nil || rep.outstanding < best.outstanding {
			best = rep
		}
	}
	return best
}
