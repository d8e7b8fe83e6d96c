package serve

import (
	"errors"
	"fmt"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/mos"
	"cronus/internal/otrace"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
	"cronus/internal/trace"
)

// replica is one (tenant, partition) serving endpoint: a CUDA mEnclave on
// the partition, owned by the tenant's session, with a worker proc that
// executes placed batches in order. When the partition proceed-traps, the
// worker requeues everything it held (in-flight batch first, then pending,
// preserving FIFO order), waits out the SPM recovery, and reconnects with a
// fresh enclave in the partition's new epoch — the failover-aware retry
// layer of the plane.
type replica struct {
	srv  *Server
	t    *tenant
	part *poolPart // the pooled (node, partition) the endpoint lives on

	cubin    []byte
	inCap    int
	smDemand uint64
	// zeros is the input every executed inference batch uploads: inCap bytes —
	// the largest class input × MaxBatch — that nobody ever writes. HtoD only
	// borrows its argument for the call, so one buffer serves every batch, an
	// attempt the watchdog abandoned mid-upload included. Nil on the
	// flow-model plane, which uploads nothing.
	zeros []byte

	conn   *core.CUDAConn
	outPtr uint64
	inPtr  uint64
	gen    int // enclave incarnation, bumped per reconnect for unique names

	worker      *sim.Proc // runs placed batches (nil on the flow-model plane)
	pending     sim.FIFO[*batch]
	outstanding int
	down        bool
	cond        *sim.Cond

	// consecTimeouts is the circuit-breaker state: consecutive attempt
	// timeouts without an intervening success. Reaching hangReportAfter
	// (under Config.Supervise) reports the partition to the SPM as hung.
	consecTimeouts int

	// Flow-model-plane state (sharded.go; nil/zero on the classic path): the
	// busy-until instant of each modeled lane (one parallel sRPC ring), the
	// round-robin lane cursor, the set of batches dispatched but not yet
	// completed (cancellation on failover), and the mailbox port batches
	// arrive on.
	lanes     []sim.Time
	nextLane  int
	inflightB []*batch
	lanePort  *sim.Port[*batch]
}

// nodeSPM returns the SPM of the replica's owning node: every node has its own
// SPM and "gpu-part%d" namespace.
func (rep *replica) nodeSPM() *spm.SPM {
	return rep.srv.plats[rep.part.node].SPM
}

// unplaceable reports whether the placement policy must skip the replica:
// mid-failover, or its partition retired or quiescing for a planned
// migration.
func (rep *replica) unplaceable() bool {
	return rep.down || rep.part.retired() || rep.part.draining
}

func newReplica(p *sim.Proc, srv *Server, t *tenant, part *poolPart, smDemand uint64) (*replica, error) {
	kernels := []string{serveKernel}
	seen := map[string]bool{serveKernel: true}
	// An inference class uploads inBytes per request; a general-compute-only
	// mix still gets a 4-byte staging buffer.
	maxIn := 4
	for _, cl := range t.classes {
		if cl.spec.Bench != nil {
			for _, kn := range cl.spec.Bench.Kernels {
				if !seen[kn] {
					seen[kn] = true
					kernels = append(kernels, kn)
				}
			}
			continue
		}
		maxIn = inBytes
	}
	rep := &replica{
		srv:      srv,
		t:        t,
		part:     part,
		cubin:    gpu.BuildCubin(kernels...),
		inCap:    maxIn * srv.cfg.MaxBatch,
		smDemand: smDemand,
		cond:     sim.NewCond(srv.pl.K),
	}
	if srv.flow {
		srv.shInitReplica(rep)
	} else {
		rep.zeros = make([]byte, rep.inCap)
	}
	if err := rep.connect(p); err != nil {
		return nil, err
	}
	if !srv.flow {
		rep.worker = srv.pl.K.Spawn(fmt.Sprintf("serve-worker-%s-p%d", t.spec.Name, part.idx), rep.run)
	}
	return rep, nil
}

// connect creates a fresh CUDA mEnclave on the replica's partition and
// allocates its staging buffers. Each incarnation gets a unique enclave
// name so post-failover attestation manifests stay distinguishable.
func (rep *replica) connect(p *sim.Proc) error {
	rep.gen++
	opts := core.CUDAOptions{
		Cubin:     rep.cubin,
		Partition: rep.part.sp.Name,
		Name:      fmt.Sprintf("%s/r%d.%d", rep.t.spec.Name, rep.part.idx, rep.gen),
	}
	if rep.srv.flow {
		// The flow-model plane opens one real sRPC ring per modeled lane,
		// each with a zero-copy payload arena sized for a full batch: the
		// control-plane costs (attestation, ring setup, arena grant) are
		// paid for real.
		opts.Rings = lanesPerReplica
		opts.ZCPayload = rep.inCap
	}
	conn, err := rep.t.sessions[rep.part.node].OpenCUDA(p, opts)
	if err != nil {
		return err
	}
	out, err := conn.MemAlloc(p, 4)
	if err != nil {
		_ = conn.Close(p)
		return err
	}
	in, err := conn.MemAlloc(p, uint64(rep.inCap))
	if err != nil {
		_ = conn.Close(p)
		return err
	}
	rep.conn, rep.outPtr, rep.inPtr = conn, out, in
	return nil
}

// enqueue places a batch on the replica (called by the dispatcher).
func (rep *replica) enqueue(b *batch) {
	rep.pending.Push(b)
	rep.outstanding += len(b.reqs)
	rep.cond.Broadcast()
}

// TimeoutError is the typed completion error of a batch that exhausted its
// retry budget: every attempt (the first plus maxRetries retries)
// was abandoned by the request watchdog. It counts as Failed in the tenant
// accounting, so conservation still holds.
type TimeoutError struct {
	Tenant   string
	Attempts int
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("serve: request timed out on tenant %s after %d attempts", e.Tenant, e.Attempts)
}

// errAttemptTimeout marks one batch attempt abandoned by the watchdog. It is
// internal: after retries it is rewrapped as *TimeoutError.
var errAttemptTimeout = errors.New("serve: batch attempt timed out")

// run is the worker body: execute pending batches in order; on peer failure
// requeue and reconnect.
func (rep *replica) run(p *sim.Proc) {
	for {
		if rep.part.quarantined {
			// Quarantine is terminal: hand what is held to the surviving
			// replicas and exit.
			rep.drainPending()
			return
		}
		if rep.down {
			rep.failover(p)
			continue
		}
		if rep.pending.Len() == 0 {
			rep.cond.Wait(p)
			continue
		}
		b := rep.pending.Pop()
		err := rep.execWithRetry(p, b)
		if err != nil && errors.Is(err, srpc.ErrPeerFailed) {
			// The partition proceed-trapped under us. Put the in-flight
			// batch back ahead of everything behind it and enter failover,
			// whose drainPending requeues them all, oldest first. Nothing
			// completes here, so nothing is lost; nothing completed earlier
			// is requeued, so nothing duplicates.
			rep.down = true
			rep.pending.PushFront([]*batch{b})
			continue
		}
		rep.outstanding -= len(b.reqs)
		rep.srv.finishBatch(b, p.Now(), err)
	}
}

// failover is the recovery body behind both planes' replicas: requeue
// anything still held (nothing on the flow-model plane, whose in-flight
// batches were evacuated when the failure record fired), wait for the SPM to
// finish the partition's proceed-trap recovery, let the driver re-probe
// settle, and reconnect with bounded exponential backoff. The replica stays
// down when the partition is quarantined instead — the failure subscription
// already retired it, and both waits refuse a quarantined partition.
func (rep *replica) failover(p *sim.Proc) {
	rep.drainPending()
	if rep.nodeSPM().AwaitReady(p, rep.part.sp) != nil {
		return
	}
	p.Sleep(reprobeSettle)
	if rep.reconnect(p) != nil {
		return
	}
	rep.down = false
	rep.consecTimeouts = 0
}

// drainPending is the executed plane's one requeue: every request the
// replica still holds goes back through the front of the tenant queue,
// oldest first and bypassing admission (it was admitted once already), so
// the dispatcher re-places the load on surviving replicas.
func (rep *replica) drainPending() {
	if rep.pending.Len() == 0 {
		return
	}
	var rs []*Request
	for rep.pending.Len() > 0 {
		rs = append(rs, rep.pending.Pop().reqs...)
	}
	rep.outstanding -= len(rs)
	now := rep.srv.pl.K.Now()
	for _, r := range rs {
		r.Replays++
		rep.t.replayed++
		rep.srv.mark(r, otrace.StageRequeue, now)
	}
	rep.t.q.pushFront(rs)
}

// The replica reconnect policy after a failover or recycle: reprobeSettle is
// the driver re-probe settle time a recovered partition gets before the
// session re-creates enclaves on it; the delay between reconnect attempts
// starts at reconnectBase and doubles per attempt up to reconnectMax;
// reconnectMaxAttempts bounds the attempts against a quarantined partition,
// after which the reconnect fails with a typed *spm.QuarantinedError.
const (
	reprobeSettle        = 500 * sim.Microsecond
	reconnectBase        = sim.Millisecond
	reconnectMax         = 16 * sim.Millisecond
	reconnectMaxAttempts = 8
)

// reconnectBackoff is the delay after reconnect attempt n (1-based): the
// base doubling per attempt, capped at max.
func reconnectBackoff(base, max sim.Duration, attempt int) sim.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// reconnect re-creates the replica's enclave, retrying with exponential
// backoff (reconnectBase doubling up to reconnectMax) and
// counting every attempt in serve.reconnect.attempts. It waits out any
// in-flight recovery before each attempt; a quarantined partition surfaces
// as a typed *spm.QuarantinedError — immediately via AwaitReady, or at the
// reconnectMaxAttempts cap if the quarantine engaged mid-attempt. A
// partition that is merely slow keeps being retried at the capped backoff.
func (rep *replica) reconnect(p *sim.Proc) error {
	part := rep.part.sp
	for attempt := 1; ; attempt++ {
		if err := rep.nodeSPM().AwaitReady(p, part); err != nil {
			return err
		}
		rep.srv.ctrReconnects.Inc()
		if err := rep.connect(p); err == nil {
			return nil
		}
		if attempt >= reconnectMaxAttempts && part.State() == spm.PartQuarantined {
			return &spm.QuarantinedError{Partition: part.Name}
		}
		p.Sleep(reconnectBackoff(reconnectBase, reconnectMax, attempt))
	}
}

// reportHang is the circuit breaker tripping: hangReportAfter
// consecutive attempt timeouts mean the partition is wedged, so instead of
// retrying blindly the replica reports the symptom to the SPM — closing
// the loop from per-request timeout to FailHang — and hands its batch to
// the failover path by failing with ErrPeerFailed.
func (rep *replica) reportHang(p *sim.Proc) error {
	rep.consecTimeouts = 0
	rep.srv.ctrHangReports.Inc()
	rep.nodeSPM().Fail(rep.part.sp, spm.FailHang)
	return fmt.Errorf("serve: replica %s/p%d reported hang after consecutive timeouts: %w",
		rep.t.spec.Name, rep.part.idx, srpc.ErrPeerFailed)
}

// execWithRetry drives one batch through bounded attempts. Peer failures
// pass straight up to the failover path (they are handled by requeueing, not
// retrying); watchdog timeouts and ring corruption recycle the connection
// and retry with exponential backoff; any other error is a deterministic
// request failure and is returned as-is. Retries never complete a request —
// only the final return from run() does — so exactly-once accounting is
// preserved by construction.
func (rep *replica) execWithRetry(p *sim.Proc, b *batch) error {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		rep.srv.markBatch(b, otrace.StageExec, p.Now())
		err := rep.execAttempt(p, b)
		if err == nil {
			rep.consecTimeouts = 0
			return nil
		}
		if errors.Is(err, srpc.ErrPeerFailed) {
			return err
		}
		timedOut := errors.Is(err, errAttemptTimeout)
		if timedOut {
			rep.t.timeouts++
			rep.srv.ctrTimeouts.Inc()
			rep.consecTimeouts++
			if rep.srv.cfg.Supervise && rep.consecTimeouts >= hangReportAfter {
				return rep.reportHang(p)
			}
		} else {
			rep.consecTimeouts = 0
			if !errors.Is(err, mos.ErrRingCorrupt) {
				return err
			}
		}
		// From here the batch is between attempts: recycle teardown and the
		// retry pause both attribute to the backoff stage.
		rep.srv.markBatch(b, otrace.StageBackoff, p.Now())
		if attempt >= maxRetries {
			// Budget exhausted: still recycle, so the wedged stream does
			// not bleed one more timeout into the next batch.
			if rerr := rep.recycle(p); rerr != nil {
				return fmt.Errorf("serve: recycle refused: %v: %w", rerr, srpc.ErrPeerFailed)
			}
			if timedOut {
				return &TimeoutError{Tenant: rep.t.spec.Name, Attempts: attempt + 1}
			}
			return err
		}
		for _, r := range b.reqs {
			r.Retries++
		}
		rep.t.retried += uint64(len(b.reqs))
		rep.srv.ctrRetries.Inc()
		if rerr := rep.recycle(p); rerr != nil {
			return fmt.Errorf("serve: recycle refused: %v: %w", rerr, srpc.ErrPeerFailed)
		}
		p.Sleep(backoff)
		backoff *= 2
	}
}

// execAttempt runs one attempt of a batch. Without a configured
// RequestTimeout it is exactly exec. With one, exec runs on a child proc and
// this worker acts as the watchdog: it parks until the child finishes or the
// deadline passes, then kills an overdue child and reports errAttemptTimeout.
// The child signals completion through an interrupt, so a finishing attempt
// wakes the watchdog immediately rather than at the deadline.
func (rep *replica) execAttempt(p *sim.Proc, b *batch) error {
	to := rep.srv.cfg.RequestTimeout
	if to <= 0 {
		return rep.exec(p, b)
	}
	var (
		done    bool
		execErr error
	)
	child := rep.srv.pl.K.Spawn(
		fmt.Sprintf("serve-exec-%s-p%d", rep.t.spec.Name, rep.part.idx),
		func(cp *sim.Proc) {
			execErr = rep.exec(cp, b)
			done = true
			rep.srv.pl.K.Interrupt(p)
		})
	deadline := p.Now() + sim.Time(to)
	for !done && p.Now() < deadline {
		p.SleepInterruptible(sim.Duration(deadline - p.Now()))
	}
	if done {
		return execErr
	}
	rep.srv.pl.K.Kill(child)
	return errAttemptTimeout
}

// recycle tears the replica's connection down without draining it — the
// stream may be wedged on a hung launch or poisoned by corruption — and
// connects a fresh enclave incarnation. If the partition happens to be in
// proceed-trap recovery, the reconnect loop waits it out exactly like
// failover does; a quarantined partition surfaces the typed refusal.
func (rep *replica) recycle(p *sim.Proc) error {
	rep.conn.Abandon()
	return rep.reconnect(p)
}

// exec runs one batch on the device. Inference batches upload the combined
// input and launch the serve kernel once with the batch's total work —
// per-launch dispatch, world switches and sRPC round trips are paid once
// per batch instead of once per request. General-compute batches run the
// full rodinia pass (always a single request).
func (rep *replica) exec(p *sim.Proc, b *batch) error {
	// The batch executes on behalf of its head request's trace: one
	// batch-exec span on the partition track, under which the sRPC, mOS and
	// device hooks all link (the proc carries the context; a watchdog kill
	// still runs the deferred close during unwind, so the span is recorded
	// and the context restored either way).
	if tc := trace.Of(p.Kernel()); tc != nil && b.reqs[0].TraceID() != 0 {
		head := b.reqs[0].trace
		defer tc.StartSpan(p, "serve", rep.part.sp.Name, "batch-exec",
			trace.SpanCtx{Trace: head.traceID, Span: head.spanID})()
	}
	cl := b.class
	if cl.spec.Bench != nil {
		return cl.spec.Bench.Run(p, rep.conn)
	}
	n := len(b.reqs)
	if err := rep.conn.HtoD(p, rep.inPtr, rep.zeros[:inBytes*n]); err != nil {
		return err
	}
	work := uint64(cl.itemNS) * uint64(n)
	if err := rep.conn.Launch(p, serveKernel, gpu.Dim{n, 1, 1},
		rep.outPtr, uint64(n), work, rep.smDemand); err != nil {
		return err
	}
	return rep.conn.Sync(p)
}
