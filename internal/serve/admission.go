package serve

import (
	"fmt"

	"cronus/internal/metrics"
	"cronus/internal/otrace"
	"cronus/internal/sim"
	"cronus/internal/trace"
)

// OverloadError is the typed shed result of the admission controller: the
// tenant's bounded queue was full, so the request was refused instead of
// queueing without limit. Callers distinguish it from execution failures
// with errors.As.
type OverloadError struct {
	Tenant string
	Cap    int
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: tenant %s overloaded (queue cap %d)", e.Tenant, e.Cap)
}

// queue is one tenant's bounded admission queue. All access happens on
// simulated procs (the kernel runs one at a time), so no locking is needed;
// blocking uses the kernel's park/wake primitives.
type queue struct {
	k     *sim.Kernel
	cap   int
	items sim.FIFO[*Request]
	depth *metrics.Gauge
	cond  *sim.Cond
	// batching is the dispatcher proc currently holding a batch window
	// open in an interruptible sleep; a push cuts the sleep short so the
	// new arrival can join the batch.
	batching *sim.Proc
}

func newQueue(k *sim.Kernel, capacity int, depth *metrics.Gauge) *queue {
	return &queue{k: k, cap: capacity, depth: depth, cond: sim.NewCond(k)}
}

// inFlight is the tenant's requests currently inside the plane, derived from
// the ledger: admitted and not yet completed or failed — wherever they sit
// (queued, held by an open batch window, parked in a backlog, outstanding on
// a replica or lane). The admission bound applies to this total, so a fast
// dispatcher moving requests onto replicas cannot defeat the cap.
func (t *tenant) inFlight() int {
	return int(t.admitted - t.completed - t.failed)
}

// capacity reports the tenant's usable and total replica slots for the
// degraded-admission bound. Only retired replicas (quarantined or released
// by an elastic scale-down) count as lost: transient failovers recover in
// bounded time and must not perturb admission (survivor accounting under a
// one-shot fault stays identical to the baseline), and a draining replica
// still finishes its in-flight work. Released capacity shrinking the bound
// is also the autoscaler's feedback path — scale down too far and the shed
// rate climbs, which is exactly the signal that scales back up. Under
// DeviceAffinity the tenant only ever uses its pinned replica, so capacity
// is that single slot — unless the pin has retired and the scheduler is
// falling back to spreading over the survivors.
func (srv *Server) capacity(t *tenant) (usable, total int) {
	reps := srv.placementSet(t)
	if len(reps) == 0 {
		return 0, 0
	}
	if srv.cfg.Policy == DeviceAffinity && !reps[t.idx%len(reps)].part.retired() {
		return 1, 1
	}
	total = len(reps)
	for _, rep := range reps {
		if !rep.part.retired() {
			usable++
		}
	}
	return usable, total
}

// effectiveCap is the degraded-mode admission bound: the configured queue
// cap scaled by the fraction of usable replica capacity, so a pool running
// at half capacity admits half the in-flight work and sheds the rest with
// typed *OverloadError instead of letting queues collapse onto the
// survivors. Full capacity returns the configured cap unchanged; zero
// usable capacity admits nothing. With Config.SLOAdmission, a firing
// burn-rate signal additionally halves the cap (floor 1): the budget is
// burning too fast for the current intake, so shed early — before timeouts
// pile up and the circuit breaker reports the partition.
func (srv *Server) effectiveCap(t *tenant, now sim.Time) int {
	usable, total := srv.capacity(t)
	if usable == 0 {
		return 0
	}
	c := t.q.cap
	if usable != total {
		c = t.q.cap * usable / total
	}
	if t.rehomed && srv.cl.aliveCnt < srv.cl.nodes {
		// Cross-node failover tightened the pool: a re-homed tenant's cap
		// shrinks by the lost capacity fraction, so survivors shed the load
		// the dead node can no longer carry instead of absorbing it all.
		c = c * srv.cl.aliveCnt / srv.cl.nodes
	}
	if srv.cfg.SLOAdmission && t.slo.Signal(now).Firing {
		c /= 2
	}
	if c < 1 {
		c = 1
	}
	return c
}

// push appends an admitted request and wakes the dispatcher.
func (q *queue) push(r *Request) {
	q.items.Push(r)
	q.depth.Set(int64(q.items.Len()))
	q.cond.Broadcast()
	if q.batching != nil {
		q.k.Interrupt(q.batching)
	}
}

// pushFront re-enqueues replayed requests at the head, preserving their
// original order ahead of newer arrivals. Replays bypass the admission cap:
// the requests were already admitted once.
func (q *queue) pushFront(rs []*Request) {
	q.items.PushFront(rs)
	q.depth.Set(int64(q.items.Len()))
	q.cond.Broadcast()
	if q.batching != nil {
		q.k.Interrupt(q.batching)
	}
}

// waitFirst blocks until a request is available and pops it.
func (q *queue) waitFirst(p *sim.Proc) *Request {
	for q.items.Len() == 0 {
		q.cond.Wait(p)
	}
	return q.pop()
}

// popMatching pops the head request only if it belongs to cl — batches stay
// FIFO and single-class.
func (q *queue) popMatching(cl *workClass) *Request {
	if q.items.Len() == 0 || q.items.Live()[0].class != cl {
		return nil
	}
	return q.pop()
}

func (q *queue) pop() *Request {
	r := q.items.Pop()
	q.depth.Set(int64(q.items.Len()))
	return r
}

// submit is the one admission decision both planes run for an offered
// request, inline in arrival events: shed with a typed *OverloadError when
// the tenant is at its in-flight bound, otherwise assign the id (the
// plane-wide admission sequence), record the arrival, append the kept record
// and hand the request to the plane — the dispatcher's queue on the executed
// plane, inline batching on the flow model.
func (srv *Server) submit(now sim.Time, t *tenant, cl *workClass) (*Request, error) {
	t.offered++
	if limit := srv.effectiveCap(t, now); t.inFlight() >= limit {
		t.shed++
		return nil, &OverloadError{Tenant: t.spec.Name, Cap: limit}
	}
	srv.admittedTotal++
	r := &srv.reqArena.take(1)[0] // zeroed, and nobody's before
	r.ID = srv.admittedTotal
	r.Tenant = t.spec.Name
	r.Arrived = now
	r.class = cl
	if srv.cfg.Trace {
		// The tenant's admission sequence (pre-increment) keys the
		// deterministic trace id; the root span id is only minted when the
		// kernel is traced (attribution works without the event spine).
		r.trace = &reqTrace{traceID: otrace.DeriveTraceID(t.spec.Name, t.admitted)}
		if tc := trace.Of(srv.pl.K); tc != nil {
			r.trace.spanID = tc.NextSpanID()
		}
	}
	t.admitted++
	if srv.cfg.KeepRequests {
		srv.requests = append(srv.requests, r)
	}
	if srv.flow {
		srv.shBatchIn(now, t, r)
	} else {
		t.q.push(r)
	}
	return r, nil
}
