package serve

// The sharded data plane: the serving path selected by Config.Shards >= 2.
//
// The classic plane burns a proc handshake (park + wake, ~1µs of host time)
// for every queue push, batch window, replica enqueue and sRPC doorbell —
// fine at Fig.-8 scale, but at 90k requests per virtual second the host time
// of one 20ms window is dominated by scheduler churn, not by the model. The
// sharded plane keeps the control plane real (platform boot, per-tenant
// sessions, CUDA mEnclave creation with local attestation, multi-ring sRPC
// streams with zero-copy arenas, SPM failure subscription and reconnect) and
// replaces the per-request machinery with an event-driven flow model over
// the exact same cost surface:
//
//   - arrivals are CallAt chains on the host shard (one event per request,
//     no generator proc wakeups);
//   - admission and dynamic batching run inline in the arrival event
//     (single-class FIFO batches, closed at MaxBatch or BatchWindow);
//   - a closed batch crosses to its replica's partition shard through a
//     mailbox Port whose hop is the PCIe latency — exactly the kernel
//     lookahead, so conservative parallel windows never stall on it;
//   - the lane handler serializes service on one of Config.Lanes modeled
//     rings and charges the fused zero-copy path: RingPush + SpanCheck on
//     the host side, RingPoll + SpanCheck + two RPC dispatches + payload
//     DMA + kernel dispatch + per-item device work on the lane
//     (srpc.CallZC's cost surface; see zerocopy.go);
//   - completion crosses back through a host-shard Port whose inline
//     handler finalizes every request of the batch — histograms, SLO
//     scoring, closed-loop signals, drain bookkeeping.
//
// Determinism. Every cross-entity interaction rides a Port, and Port sends
// are (sender lid, sender seq)-keyed in both sequential and parallel modes;
// every same-tenant tie (arrival vs. window timer) is keyed by the tenant's
// single anchor proc, so its order is the scheduling order in both modes;
// ties across tenants touch no shared order-sensitive state (tenants own
// disjoint replicas, stripes and histograms; the only shared words are
// commutative totals). Hence a run's outputs are byte-identical across
// shard counts and with Parallel on or off — asserted by the tests.
//
// Counters that the classic plane kept global are striped here: each lane
// counts its own batches, requests and busy time on its partition shard,
// and result() folds the stripes in deterministic tenant → replica → lane
// order at snapshot time.
//
// Faults. The only failure source the sharded plane admits is the FailAt
// injector (Supervision and HangReportAfter are validated out; a
// RequestTimeout is modeled as a lane deadline — a batch whose service time
// exceeds it burns MaxRetries+1 timeout windows plus the doubling backoff
// gaps on its lane and completes with the typed TimeoutError, matching the
// classic watchdog's accounting), and the
// injector sequentializes the kernel before pulling the trigger, so every
// failover runs single-threaded: in-flight batches on the dead replica are
// cancelled (their pending lane/completion events become no-ops) and their
// requests requeued to the tenant backlog, a recovery proc waits out the
// SPM restart and reconnects for real, then the backlog re-dispatches.
// Attestation revocations (attestor.go) follow the same discipline: the
// re-measurement prober and the attestation fault procs sequentialize the
// kernel before mutating global state, and a revocation sheds the revoked
// replica's in-flight batches (typed *attest.RevokedError, never requeued —
// results from a partition with a stale measurement are untrusted) before
// draining the partition through the quarantine path.

import (
	"fmt"
	"math/rand"

	"cronus/internal/cluster"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// Logical proc ids of the sharded plane. Every proc alive when the kernel
// goes parallel needs a stable non-zero lid: event keys derive from it, so
// the assignment is part of the determinism contract.
const (
	lidMain         uint64 = 1       // the proc driving Serve
	lidFailInjector uint64 = 7       // the FailAt injector
	lidTenantAnchor uint64 = 0x100   // + tenant index (host shard)
	lidShardAnchor  uint64 = 0x200   // + shard id (device shards)
	lidNodeFault    uint64 = 0x300   // + node index (cluster fault procs)
	lidGateway      uint64 = 0x400   // the cluster gateway anchor (host shard)
	lidAttestProber uint64 = 0x480   // the continuous re-measurement prober
	lidAttestFault  uint64 = 0x500   // + fault index (attestation fault procs)
	lidMigration    uint64 = 0x600   // + migration index (planned migration procs)
	lidAutoscaler   uint64 = 0x680   // the elastic autoscaler control loop
	lidClosedLoop   uint64 = 0x10000 // * (tenant index + 1) + client + 1
)

// laneState is one modeled parallel sRPC ring of a replica. It lives on the
// replica's partition shard: only lane-arrival handlers and the completion
// CallAt closures touch it, so it needs no locking even in parallel windows.
type laneState struct {
	busyUntil sim.Time
	batches   uint64
	reqs      uint64
	busyNS    sim.Duration
}

// shState is the sharded plane's kernel-facing state.
type shState struct {
	n       int          // device shards (Config.Shards)
	hop     sim.Duration // Port hop == kernel lookahead (PCIe latency)
	anchors []*sim.Proc  // per-shard anchor procs, index = kernel shard id
	compl   *sim.Port[*batch]
}

// ShardLayoutError is the typed usage error for a shard/partition/node
// layout that cannot be mapped cleanly: partition counts that do not divide
// across shards, or shard/partition counts that do not divide across nodes.
// CLIs report it and exit with a usage status instead of booting a lopsided
// plane.
type ShardLayoutError struct {
	Shards     int
	Partitions int
	Nodes      int
}

// Error implements error.
func (e *ShardLayoutError) Error() string {
	if e.Nodes >= 2 {
		return fmt.Sprintf("serve: layout -shards %d -partitions %d -nodes %d: shards and partitions must each be positive multiples of the node count",
			e.Shards, e.Partitions, e.Nodes)
	}
	return fmt.Sprintf("serve: layout -shards %d -partitions %d: the partition count must be a positive multiple of the shard count",
		e.Shards, e.Partitions)
}

// CheckShardLayout validates a CLI-facing shard/partition/node combination:
// with shards >= 2 the partitions must divide evenly over the shards, and
// with nodes >= 2 both shards and partitions must divide evenly over the
// nodes. Library configs are not forced through this (benchmarks legitimately
// run one partition over many shards); it exists so command-line layouts fail
// fast with a typed usage error instead of producing a surprising mapping.
func CheckShardLayout(shards, partitions, nodes int) error {
	if nodes >= 2 {
		if shards < 2 || shards%nodes != 0 || partitions < 1 || partitions%nodes != 0 {
			return &ShardLayoutError{Shards: shards, Partitions: partitions, Nodes: nodes}
		}
	}
	if shards >= 2 && (partitions < 1 || partitions%shards != 0) {
		return &ShardLayoutError{Shards: shards, Partitions: partitions, Nodes: nodes}
	}
	return nil
}

// validateSharded rejects configurations the sharded plane does not model.
// The checks run after defaults(), on every New.
func validateSharded(cfg Config) error {
	if cfg.Shards < 2 {
		if cfg.Parallel {
			return fmt.Errorf("serve: Parallel requires Shards >= 2")
		}
		return nil
	}
	switch {
	case cfg.Trace:
		return fmt.Errorf("serve: the sharded data plane does not support Trace (use Shards <= 1)")
	case cfg.Supervision != nil:
		return fmt.Errorf("serve: the sharded data plane does not support Supervision (use Shards <= 1)")
	case cfg.HangReportAfter > 0:
		return fmt.Errorf("serve: the sharded data plane does not support HangReportAfter (use Shards <= 1)")
	}
	for _, spec := range cfg.Tenants {
		for _, wc := range spec.Mix {
			if wc.Bench != nil {
				return fmt.Errorf("serve: the sharded data plane serves batchable inference classes only; class %s of tenant %s is a rodinia pass",
					wc.Name, spec.Name)
			}
		}
	}
	return nil
}

// shBoot partitions the kernel (one host shard plus cfg.Shards device
// shards), spreads the pooled GPU partitions across the device shards, and
// anchors the cross-shard machinery: one parked anchor proc per device shard
// (the stable identity that keys CallAt and Port events raised from handler
// context there) and the host-shard completion port. Runs before any replica
// connects, so executor placement sees the partition's shard.
func (srv *Server) shBoot() {
	k := srv.pl.K
	hop := srv.pl.Costs.PCIeLatency
	k.EnableSharding(1+srv.cfg.Shards, hop)
	srv.sh = &shState{
		n:       srv.cfg.Shards,
		hop:     hop,
		anchors: make([]*sim.Proc, 1+srv.cfg.Shards),
	}
	if srv.cl != nil {
		// Cluster layout: node n's partitions map onto its own shard block
		// [1+n·spn, 1+(n+1)·spn), so no kernel shard ever hosts partitions
		// of two nodes and a node crash quiesces a whole shard group.
		for n := 0; n < srv.cl.nodes; n++ {
			for pi := 0; pi < srv.cl.ppn; pi++ {
				srv.plats[n].GPUs[pi].Part.SetShard(1 + n*srv.cl.spn + pi%srv.cl.spn)
			}
		}
	} else {
		for pi := 0; pi < srv.cfg.GPUPartitions; pi++ {
			srv.pl.GPUs[pi].Part.SetShard(1 + pi%srv.cfg.Shards)
		}
	}
	for s := 1; s <= srv.cfg.Shards; s++ {
		srv.sh.anchors[s] = srv.shSpawnAnchor(s, lidShardAnchor+uint64(s),
			fmt.Sprintf("serve-anchor-shard%d", s))
	}
	if srv.cl != nil {
		// The gateway anchor keys the heal-queue flush timers, and each node
		// gets its own completion port whose hop is the fabric link latency:
		// a completion crossing node→gateway pays the propagation delay in
		// the port hop and the serialization/bandwidth cost in submitNS.
		srv.cl.gw = srv.shSpawnAnchor(0, lidGateway, "serve-gateway")
		srv.cl.compl = make([]*sim.Port[*batch], srv.cl.nodes)
		for n := 0; n < srv.cl.nodes; n++ {
			n := n
			srv.cl.compl[n] = sim.NewPort[*batch](k, 0,
				fmt.Sprintf("serve-compl-n%d", n), srv.cfg.LinkLatency)
			srv.cl.compl[n].SetHandler(func(at sim.Time, b *batch) {
				srv.clComplArrive(n, at, b)
			})
		}
		return
	}
	srv.sh.compl = sim.NewPort[*batch](k, 0, "serve-completions", hop)
	srv.sh.compl.SetHandler(srv.shDone)
}

// shSpawnAnchor spawns a proc that parks forever on the given shard: its
// (lid, seq) identity keys the events raised on its shard's behalf.
func (srv *Server) shSpawnAnchor(shard int, lid uint64, name string) *sim.Proc {
	park := sim.NewSignal(srv.pl.K)
	return srv.pl.K.SpawnOn(shard, lid, name, func(p *sim.Proc) {
		park.Wait(p) // never fired: the anchor exists for its identity
	})
}

// shInitReplica attaches the lane stripes and the partition-shard mailbox
// port to a replica being built (before its first connect).
func (srv *Server) shInitReplica(rep *replica) {
	rep.lanes = make([]laneState, srv.cfg.Lanes)
	shard := rep.plat().GPUs[rep.partIdx].Part.Shard()
	hop := srv.sh.hop
	name := fmt.Sprintf("serve-lane-%s-p%d", rep.t.spec.Name, rep.partIdx)
	if srv.cl != nil {
		// Gateway→node crossings ride the fabric, not PCIe: the port hop is
		// the inter-node link latency (validated ≥ the kernel lookahead).
		hop = srv.cfg.LinkLatency
		name = fmt.Sprintf("serve-lane-%s-n%d-p%d", rep.t.spec.Name, rep.node, rep.partIdx)
	}
	rep.lanePort = sim.NewPort[*batch](srv.pl.K, shard, name, hop)
	rep.lanePort.SetHandler(func(at sim.Time, b *batch) {
		srv.shLaneArrive(rep, at, b)
	})
}

// shServe is the Serve body of the sharded plane: arm the arrival chains and
// the injector, optionally go parallel, sleep out the window, drain, then
// sequentialize for the snapshot.
func (srv *Server) shServe(p *sim.Proc) (*Result, error) {
	if p.LID() == 0 {
		p.SetLID(lidMain)
	}
	srv.endAt = p.Now() + sim.Time(srv.cfg.Window)
	srv.shStartLoad(p)
	if srv.cfg.FailAt > 0 {
		srv.startFailInjector()
	}
	if srv.cl != nil {
		srv.clArmFaults(p)
	}
	srv.atStart(p)
	srv.elStart(p)
	if srv.cfg.Parallel {
		srv.pl.K.Parallelize()
	}
	p.Sleep(srv.cfg.Window)
	for srv.completedTotal < srv.admittedTotal {
		srv.drainCond.Wait(p)
	}
	// Snapshot reads cross-shard stripes; fold them single-threaded.
	p.Sequentialize()
	srv.cancelFail()
	return srv.result(), nil
}

// shStartLoad arms the per-tenant arrival processes: open-loop tenants get a
// CallAt chain (one event per arrival, zero proc wakeups), closed-loop
// tenants one host-shard proc per client, exactly like the classic plane.
// RNG streams, seeds and draw order match loadgen.go, so the offered
// timeline of a config is identical on both planes.
func (srv *Server) shStartLoad(p *sim.Proc) {
	for _, t := range srv.tenants {
		t := t
		switch t.spec.Arrival {
		case ClosedLoop:
			n := t.spec.Clients
			if n < 1 {
				n = 1
			}
			for ci := 0; ci < n; ci++ {
				ci := ci
				srv.pl.K.SpawnOn(0, lidClosedLoop*uint64(t.idx+1)+uint64(ci)+1,
					fmt.Sprintf("serve-load-%s-c%d", t.spec.Name, ci), func(p *sim.Proc) {
						srv.shClosedLoopClient(p, t, ci)
					})
			}
		default:
			srv.shArmOpenLoop(p.Now(), t)
		}
	}
}

// shArmOpenLoop schedules the tenant's open-loop arrivals as a CallAt chain
// on the tenant's anchor: each arrival event submits one request and
// schedules the next. The last gap that lands at or past endAt is discarded
// without submitting — the same cutoff openLoop applies after its sleep.
func (srv *Server) shArmOpenLoop(start sim.Time, t *tenant) {
	rate := t.spec.Rate
	if rate <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(tenantSeed(srv.cfg.Seed, t.idx, 0)))
	var schedule func(prev sim.Time)
	schedule = func(prev sim.Time) {
		var gap sim.Duration
		if t.spec.Arrival == FixedRate {
			gap = sim.Duration(1e9 / rate)
		} else {
			gap = sim.Duration(rng.ExpFloat64() / rate * 1e9)
		}
		if gap < 1 {
			gap = 1
		}
		ta := prev + sim.Time(gap)
		t.shAnchor.CallAt(ta, func() {
			if ta >= srv.endAt {
				return
			}
			_, _ = srv.shSubmit(ta, t, t.pickClass(rng), false)
			schedule(ta)
		})
	}
	schedule(start)
}

// shClosedLoopClient mirrors closedLoopClient on the sharded plane: submit,
// wait for the completion signal (fired by the host-shard completion
// handler, so the wake never crosses shards), think, repeat.
func (srv *Server) shClosedLoopClient(p *sim.Proc, t *tenant, ci int) {
	rng := rand.New(rand.NewSource(tenantSeed(srv.cfg.Seed, t.idx, ci+1)))
	think := t.spec.Think
	if think <= 0 {
		think = 100 * sim.Microsecond
	}
	for p.Now() < srv.endAt {
		r, err := srv.shSubmit(p.Now(), t, t.pickClass(rng), true)
		if err == nil {
			r.done.Wait(p)
		}
		p.Sleep(think)
	}
}

// shInSystem counts the tenant's requests inside the sharded plane: held by
// the open batch window, parked in the backlog, or in flight on a lane. The
// admission bound applies to this total, like inSystem on the classic path.
func (t *tenant) shInSystem() int {
	n := t.shInFl
	if t.shOpen != nil {
		n += len(t.shOpen.reqs)
	}
	for _, b := range t.shBacklog {
		n += len(b.reqs)
	}
	return n
}

// shSubmit is the sharded admission decision, run inline in arrival events
// and closed-loop procs (all host shard). Request ids are per-tenant —
// tenant index in the high word, admission sequence in the low — so id
// assignment never depends on how a same-instant tie between two tenants'
// arrivals resolved.
func (srv *Server) shSubmit(now sim.Time, t *tenant, cl *workClass, withSignal bool) (*Request, error) {
	t.offered++
	if limit := srv.effectiveCap(t, now); t.shInSystem() >= limit {
		t.shed++
		return nil, &OverloadError{Tenant: t.spec.Name, Cap: limit}
	}
	t.shSeq++
	r := &Request{
		ID:      uint64(t.idx+1)<<32 | t.shSeq,
		Tenant:  t.spec.Name,
		Class:   cl.spec.Name,
		Arrived: now,
		class:   cl,
	}
	if withSignal {
		r.done = sim.NewSignal(srv.pl.K)
	}
	t.admitted++
	srv.admittedTotal++
	if srv.cfg.KeepRequests {
		t.shKept = append(t.shKept, r) // striped; folded at result()
	}
	srv.shBatchIn(now, t, r)
	return r, nil
}

// shBatchIn runs dynamic batching inline: append to the tenant's open batch
// when the class matches, close it at MaxBatch, close it early on a class
// change (FIFO order must hold), and arm a window timer when a new batch
// opens. The timer is a no-op if the batch already closed — the generation
// counter invalidates it.
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
	// One allocation sized for a full batch, not a 1→2→4 regrowth per batch.
	t.shOpen = &batch{class: r.class, reqs: append(make([]*Request, 0, srv.cfg.MaxBatch), r), t: t}
	if srv.cfg.MaxBatch <= 1 {
		srv.shCloseBatch(now, t)
		return
	}
	t.q.depth.Set(1)
	gen := t.shGen
	t.shAnchor.CallAt(now+sim.Time(srv.cfg.BatchWindow), func() {
		if t.shOpen != nil && t.shGen == gen {
			srv.shCloseBatch(now+sim.Time(srv.cfg.BatchWindow), t)
		}
	})
}

// shCloseBatch seals the open batch and dispatches it.
func (srv *Server) shCloseBatch(now sim.Time, t *tenant) {
	b := t.shOpen
	t.shOpen = nil
	t.shGen++
	t.q.depth.Set(0)
	srv.shDispatch(now, t, b)
}

// shDispatch places one sealed batch: pick a replica under the configured
// policy, round-robin a lane, charge the host-side submit cost (span check
// of the arena write plus the ring push) and send the batch through the
// replica's mailbox port. With no usable replica the batch parks in the
// tenant backlog (re-driven after recovery) — unless the whole pool is
// quarantined, which completes the requests with the typed error.
func (srv *Server) shDispatch(now sim.Time, t *tenant, b *batch) {
	rep := srv.pick(t)
	if rep == nil && srv.cl != nil && srv.clHomeUnusable(t) {
		// The tenant's whole home-node placement set is quarantined: re-hash
		// onto a surviving node before giving up on the batch.
		if srv.clRehome(now, t, "pool-quarantined") {
			rep = srv.pick(t)
		}
	}
	if rep == nil {
		if srv.allQuarantined(t) {
			err := &PoolQuarantinedError{Tenant: t.spec.Name}
			for _, r := range b.reqs {
				srv.shFinish(t, r, now, err)
			}
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
	if srv.cl != nil && srv.cl.fab.PartitionedAt(rep.node, now) {
		// The gateway→node link is partitioned: the send fails with the
		// typed fabric error instead of silently vanishing into the cut.
		err := &cluster.NetPartitionedError{Node: rep.node, Tenant: t.spec.Name}
		for _, r := range b.reqs {
			srv.shFinish(t, r, now, err)
		}
		return
	}
	// Attestation gate: a live ticket resumes for one MAC, a cold session
	// pays the (cached, coalesced) quote verification; either way the delay
	// folds into the host-side submit cost. A revoked partition sheds the
	// batch with the typed error instead of dispatching untrusted work.
	attNS, aerr := srv.attestGate(t, rep, now)
	if aerr != nil {
		for _, r := range b.reqs {
			srv.shFinish(t, r, now, aerr)
		}
		return
	}
	b.rep = rep
	b.lane = rep.nextLane % len(rep.lanes)
	rep.nextLane++
	b.submitNS = attNS + srv.pl.Costs.SpanCheck + srv.pl.Costs.RingPush
	if srv.cl != nil {
		// Fabric transfer: serialization + bandwidth (+ slow-link penalty)
		// for the batch payload; the base propagation delay rides the port
		// hop. The no-split-brain ledger also advances here: a dispatch to
		// a node other than the one carrying the tenant's live requests is
		// a split brain.
		b.submitNS += srv.cl.fab.TransferNS(rep.node, b.class.inBytes*len(b.reqs), now)
		if t.liveCnt > 0 && t.liveNode != rep.node {
			srv.cl.splitBrain++
		}
		t.liveNode = rep.node
		t.liveCnt += len(b.reqs)
	}
	rep.outstanding += len(b.reqs)
	rep.inflightB = append(rep.inflightB, b)
	t.shInFl += len(b.reqs)
	rep.lanePort.Send(t.shAnchor, b)
}

// shLaneArrive is the partition-shard mailbox handler: serialize the batch
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
		c.DMA(b.class.inBytes*n) +
		c.KernelDispatch + b.class.itemNS*sim.Duration(n)
	if to := srv.cfg.RequestTimeout; to > 0 && service > to {
		// Lane-deadline model of the classic watchdog: a batch whose service
		// exceeds the timeout occupies its lane for MaxRetries+1 timeout
		// windows plus the doubling backoff gaps, then completes with the
		// typed TimeoutError. The accounting is applied host-side in shDone.
		attempts := srv.cfg.MaxRetries + 1
		total := sim.Duration(0)
		backoff := srv.cfg.RetryBackoff
		for i := 0; i < attempts; i++ {
			total += to
			if i < attempts-1 {
				total += backoff
				backoff *= 2
			}
		}
		b.attempts = attempts
		service = total
	}
	ln := &rep.lanes[b.lane]
	start := at
	if ln.busyUntil > start {
		start = ln.busyUntil
	}
	done := start + sim.Time(service)
	ln.busyUntil = done
	ln.batches++
	ln.reqs += uint64(n)
	ln.busyNS += service
	anchor := srv.sh.anchors[rep.plat().GPUs[rep.partIdx].Part.Shard()]
	compl := srv.sh.compl
	if srv.cl != nil {
		compl = srv.cl.compl[rep.node]
	}
	anchor.CallAt(done, func() {
		if b.cancelled {
			return
		}
		compl.Send(anchor, b)
	})
}

// shDone is the host-shard completion handler: one port event finalizes the
// whole batch inline — no worker wakeup, no drain polling.
func (srv *Server) shDone(at sim.Time, b *batch) {
	if b.cancelled {
		return
	}
	if a := srv.at; a != nil && b.rep != nil {
		// Invariant counter: a completion landing after its partition's
		// revocation would mean untrusted results leaked past the drain.
		// Revocation cancels everything in flight, so this must stay 0 —
		// the chaos harness asserts it.
		if revAt, ok := a.revoked[[2]int{b.rep.node, b.rep.partIdx}]; ok && at >= revAt {
			a.ctrPostRevoke.Inc()
		}
	}
	t := b.t
	b.rep.outstanding -= len(b.reqs)
	b.rep.dropInflight(b)
	t.shInFl -= len(b.reqs)
	if srv.cl != nil {
		t.liveCnt -= len(b.reqs)
	}
	var err error
	if b.attempts > 0 {
		// The lane-deadline model resolved this batch as a watchdog timeout:
		// apply the classic plane's accounting — one timeout per attempt,
		// one retry record per attempt after the first — host-side, where
		// the totals live.
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
	for _, r := range b.reqs {
		srv.shFinish(t, r, at, err)
	}
}

// shFinish finalizes one request exactly once on the sharded plane — the
// complete() of this path, taking the completion instant instead of a proc.
func (srv *Server) shFinish(t *tenant, r *Request, at sim.Time, err error) {
	r.completions++
	if r.completions > 1 {
		t.duplicates++
		return
	}
	r.Done = at
	r.Err = err
	if err != nil {
		t.failed++
	} else {
		t.completed++
		t.latHist.Observe(int64(r.Latency()))
	}
	if t.slo != nil {
		t.slo.Record(r.Done, r.Latency(), err != nil)
	}
	srv.completedTotal++
	if r.done != nil {
		r.done.Fire()
	}
	srv.drainCond.Broadcast()
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

// shReplicaDown is the sharded half of the SPM failure subscription. It runs
// single-threaded by construction: the only failure source the sharded plane
// admits is the FailAt injector, which sequentializes the kernel before
// calling SPM.Fail. Every batch in flight on the replica is cancelled — its
// pending lane and completion events become no-ops — and requeued to the
// front of the tenant backlog as a fresh batch (composition preserved, FIFO
// order kept), then a recovery proc waits out the restart and reconnects.
func (srv *Server) shReplicaDown(rep *replica) {
	t := rep.t
	srv.shCancelInflight(t, rep)
	name := fmt.Sprintf("serve-failover-%s-p%d", t.spec.Name, rep.partIdx)
	if srv.cl != nil {
		name = fmt.Sprintf("serve-failover-%s-n%d-p%d", t.spec.Name, rep.node, rep.partIdx)
	}
	srv.pl.K.Spawn(name, func(p *sim.Proc) { srv.shRecover(p, rep) })
}

// shCancelInflight is the shared replay primitive of failover and planned
// migration: every batch in flight on the replica is cancelled — its pending
// lane and completion events become no-ops — and requeued to the front of
// the tenant backlog as a fresh batch (composition preserved, FIFO order
// kept), with the split-brain ledger and per-request replay accounting
// applied. Lanes reset to idle. Returns the number of requests replayed.
// Runs single-threaded by construction: every caller (the FailAt injector
// path, node crashes, migrations) sequentializes the kernel first.
func (srv *Server) shCancelInflight(t *tenant, rep *replica) int {
	replayed := 0
	if n := len(rep.inflightB); n > 0 {
		requeued := make([]*batch, 0, n)
		for _, b := range rep.inflightB {
			b.cancelled = true
			rep.outstanding -= len(b.reqs)
			t.shInFl -= len(b.reqs)
			if srv.cl != nil {
				t.liveCnt -= len(b.reqs)
			}
			for _, r := range b.reqs {
				r.Replays++
				t.replayed++
			}
			replayed += len(b.reqs)
			requeued = append(requeued, &batch{class: b.class, reqs: b.reqs, t: t})
		}
		rep.inflightB = nil
		t.shBacklog = append(requeued, t.shBacklog...)
	}
	for i := range rep.lanes {
		rep.lanes[i].busyUntil = 0
	}
	return replayed
}

// shRecover is the recovery proc body: wait for the SPM to finish the
// partition's proceed-trap recovery, let the driver re-probe settle, then
// reconnect (real OpenCUDA — rings, arenas and executors in the partition's
// new epoch) and re-drive the tenant's backlog. A quarantine refusal parks
// the replica and, when it was the last usable one, fails the backlog with
// the typed pool error so the drain is never stranded.
func (srv *Server) shRecover(p *sim.Proc, rep *replica) {
	part := rep.plat().GPUs[rep.partIdx].Part
	if err := rep.plat().SPM.AwaitReady(p, part); err != nil {
		srv.shQuarantined(p, rep)
		return
	}
	// Same driver re-probe settle as the classic failover path.
	p.Sleep(500 * sim.Microsecond)
	if err := rep.reconnect(p); err != nil {
		srv.shQuarantined(p, rep)
		return
	}
	rep.down = false
	srv.shFlushBacklog(p.Now(), rep.t)
}

// shQuarantined parks a replica that cannot come back and, if that leaves
// the tenant with no usable pool, completes the backlog with the typed
// error (mirrors the classic place() giving up).
func (srv *Server) shQuarantined(p *sim.Proc, rep *replica) {
	rep.quarantined = true
	t := rep.t
	if srv.cl != nil && rep.node == t.home && srv.clHomeUnusable(t) {
		// The quarantine emptied the tenant's home placement set: re-home to
		// a surviving node, which also re-drives the backlog there.
		if srv.clRehome(p.Now(), t, "pool-quarantined") {
			return
		}
	}
	if !srv.allQuarantined(t) {
		return
	}
	err := &PoolQuarantinedError{Tenant: t.spec.Name}
	backlog := t.shBacklog
	t.shBacklog = nil
	for _, b := range backlog {
		for _, r := range b.reqs {
			srv.shFinish(t, r, p.Now(), err)
		}
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

// failPartition resolves the partition the FailAt injector targets.
func (srv *Server) failPartition() *spm.Partition {
	name := srv.cfg.FailPartition
	if name == "" {
		name = "gpu-part0"
	}
	for _, g := range srv.pl.GPUs {
		if g.Part.Name == name {
			return g.Part
		}
	}
	return nil
}
