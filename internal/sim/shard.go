package sim

import "fmt"

// This file implements the sharded execution mode of the kernel (DESIGN.md
// §13). The model:
//
//   - EnableSharding(n, lookahead) partitions the kernel into n event
//     domains ("shards"); SpawnOn places processes. Execution starts
//     sequential: a deterministic merge of the per-shard queues that is
//     byte-identical to the single-queue kernel regardless of placement
//     (sequential events carry a global schedule sequence, so the merge
//     behaves as one queue).
//   - Parallelize switches to conservative (YAWNS-style) windowed
//     execution: every window the coordinator computes the global minimum
//     pending instant W, sets the horizon H = W + lookahead, and lets each
//     shard with events below H dispatch them concurrently on its own
//     goroutine. Cross-shard interaction is restricted to Ports whose hop
//     latency is >= the lookahead, so a send executed inside a window
//     (at s in [W, H)) arrives at s+hop >= W+lookahead = H — never inside
//     the window that produced it. Sends buffer in a per-shard outbox and
//     are folded into the target queues at the barrier.
//   - Determinism: in the parallel phase every event is keyed by
//     (instant, band, sender logical id, per-sender sequence) — a function
//     of the simulated program only, so dispatch order (and therefore every
//     virtual-time output) is byte-identical for any shard count or
//     placement, and under the race detector.
//   - Sequentialize permanently reverts to the sequential merge. Rare
//     cross-shard control paths (partition failure, reconnect, operator
//     actions) call it first, so the whole legacy machinery (SPM recovery,
//     kills, mailbox wakes across shards) stays valid without internal
//     changes.
//
// The unsharded kernel is the degenerate single-shard case and never pays
// any of this machinery beyond an extra branch per scheduled event.

// EnableSharding splits the kernel into n event domains with the given
// conservative lookahead (the minimum cross-shard Port hop latency). It must
// be called before Parallelize, in sequential mode; existing processes stay
// on shard 0. n is clamped to at least 1.
func (k *Kernel) EnableSharding(n int, lookahead Duration) {
	if k.parallel || k.everPar {
		panic("sim: EnableSharding after Parallelize")
	}
	if lookahead <= 0 {
		panic("sim: EnableSharding lookahead must be positive")
	}
	if n < 1 {
		n = 1
	}
	k.sharded = true
	k.eps = lookahead
	for len(k.shards) < n {
		k.shards = append(k.shards, newShard(k, len(k.shards)))
	}
}

// NumShards returns the number of event domains (1 for an unsharded kernel).
func (k *Kernel) NumShards() int { return len(k.shards) }

// SpawnOn creates a process on the given shard with the given logical id,
// starting at the current time. Logical ids key event order in the parallel
// phase: they must be non-zero and unique among processes alive at
// Parallelize (validated there). SpawnOn is sequential-mode only — processes
// spawned during the parallel phase must come from Proc.Spawn so their ids
// derive from the parent.
func (k *Kernel) SpawnOn(shard int, lid uint64, name string, fn func(p *Proc)) *Proc {
	if k.parallel {
		panic("sim: SpawnOn during the parallel phase (use Proc.Spawn)")
	}
	if shard < 0 || shard >= len(k.shards) {
		panic(fmt.Sprintf("sim: SpawnOn shard %d out of range [0,%d)", shard, len(k.shards)))
	}
	k.nextID++
	return k.spawn(k.shards[shard], k.nowSeq, name, fn, lid, k.nextID)
}

// Spawn creates a child process on the parent's shard, starting at the
// parent's current time. It is the only way to create processes during the
// parallel phase: the child's logical id and stable id derive from the
// parent's (parent lid + child ordinal << 32), so they are unique and
// independent of shard placement.
func (p *Proc) Spawn(name string, fn func(q *Proc)) *Proc {
	k := p.k
	if !k.parallel {
		k.nextID++
		return k.spawn(p.sh, k.nowSeq, name, fn, 0, k.nextID)
	}
	p.childCtr++
	lid := p.lid + p.childCtr<<32
	return k.spawn(p.sh, p.sh.now, name, fn, lid, int(lid|1<<62))
}

// key returns the mode-appropriate event key charged to this process.
func (p *Proc) key() (a, b uint64) {
	if p.k.parallel {
		p.evseq++
		return p.lid, p.evseq
	}
	p.k.gseq++
	return 0, p.k.gseq
}

// CallAt schedules fn to run in kernel context on p's shard at time t
// (clamped to p's current time). The callback runs inline on the dispatching
// goroutine — whichever holds the baton, often a blocked process — with no
// handshake. It must not block (no Sleep, Recv, Acquire); it may wake
// processes, send on ports and chain further CallAt calls through the
// captured p. A panic in it ends the run as a *PanicError naming p. This is
// the cheap-timer primitive: one heap operation per occurrence instead of a
// parked process per timer.
func (p *Proc) CallAt(t Time, fn func()) { p.CallAtArg(t, callThunk, fn) }

// callThunk is the one trampoline every CallAt rides: the func() is the
// event's argument (a func value is pointer-shaped, so boxing it is free).
func callThunk(fn any) { fn.(func())() }

// CallAtArg is CallAt for a callback that takes its argument from the event:
// fn(arg) runs at t under CallAt's rules. With fn bound once — a method value
// or closure built at set-up — and a pointer-shaped arg, scheduling an
// occurrence allocates nothing, where CallAt with a fresh closure per
// occurrence allocates the closure.
func (p *Proc) CallAtArg(t Time, fn func(any), arg any) {
	if t < p.sh.now {
		t = p.sh.now
	}
	a, b := p.key()
	ev := event{t: t, a: a, b: b, gb: 1, p: p, fn: fn, arg: arg}
	p.sh.eq.push(&ev)
}

// Parallelize requests the switch to windowed parallel execution at the next
// dispatch boundary. EnableSharding must have been called; every live
// process must carry a unique logical id by then. Call it once, after the
// sequential boot phase has placed and connected everything.
func (k *Kernel) Parallelize() {
	if !k.sharded {
		panic("sim: Parallelize without EnableSharding")
	}
	if k.parallel || k.everPar || k.pendPar {
		panic("sim: Parallelize called twice")
	}
	if k.seqReq.Load() {
		panic("sim: Parallelize after Sequentialize")
	}
	k.pendPar = true
}

// Sequentialize permanently reverts the kernel to the sequential merge, then
// returns. After it returns, cross-shard wakes, kills and shared-state
// mutation are legal again (the whole simulation is driven by one goroutine
// in a deterministic global order). It is the safety valve for rare
// cross-shard control paths — failure handling, reconnects, operator
// actions. No-op before Parallelize or on an unsharded kernel, so callers
// need no mode check of their own.
func (p *Proc) Sequentialize() {
	k := p.k
	if !k.everPar {
		return
	}
	if !k.parallel {
		return // already back to sequential
	}
	k.seqReq.Store(true)
	// Block once: the request is an end condition, so the baton goes straight
	// back to our shard's window, the coordinator completes the barrier and
	// switches modes, and this process resumes under the sequential merge.
	p.Sleep(0)
}

// beginParallel validates logical ids and flips the mode (coordinator only).
func (k *Kernel) beginParallel() {
	seen := make(map[uint64]string)
	for _, sh := range k.shards {
		for p := range sh.procs {
			if p.state == procDead {
				continue
			}
			if p.lid == 0 {
				panic(fmt.Sprintf("sim: Parallelize: live process %q has no logical id (SpawnOn)", p.name))
			}
			if other, dup := seen[p.lid]; dup {
				panic(fmt.Sprintf("sim: Parallelize: processes %q and %q share logical id %d", other, p.name, p.lid))
			}
			seen[p.lid] = p.name
		}
	}
	// Shard clocks only advance when they dispatch; align stragglers to the
	// global clock so every shard enters the first window at the same
	// instant.
	for _, sh := range k.shards {
		if k.nowSeq > sh.now {
			sh.now = k.nowSeq
		}
	}
	k.parallel = true
	k.everPar = true
}

// endParallel folds pending cross-shard sends back into the queues and
// reverts to sequential mode (coordinator only).
func (k *Kernel) endParallel() {
	k.drainOutboxes()
	k.parallel = false
	for _, sh := range k.shards {
		if sh.now > k.nowSeq {
			k.nowSeq = sh.now
		}
	}
}

// runParallel is the window coordinator. It returns finished=true when the
// run is over (error, stop, deadline or drained queue) and finished=false
// when Sequentialize switched the mode and the sequential loop should take
// over.
func (k *Kernel) runParallel(deadline Time) (err error, finished bool) {
	k.startDispatchers()
	for {
		if err := k.getErr(); err != nil {
			return err, true
		}
		if k.stopped.Load() {
			return nil, true
		}
		if k.seqReq.Load() {
			k.endParallel()
			return nil, false
		}
		first := k.minShard()
		if first == nil {
			if k.live.Load() > 0 {
				return k.deadlock(), true
			}
			return nil, true
		}
		w := first.eq[0].t
		if deadline >= 0 && w > deadline {
			k.nowSeq = deadline
			return nil, true
		}
		k.limit = w + Time(k.eps)
		if deadline >= 0 && k.limit > deadline+1 {
			k.limit = deadline + 1
		}
		active := k.active[:0]
		for _, sh := range k.shards {
			if len(sh.eq) > 0 && sh.eq[0].t < k.limit {
				active = append(active, sh)
			}
		}
		k.active = active
		if len(active) == 1 {
			// A window with one busy shard runs inline on the coordinator:
			// no handoff, no barrier cost — the common case when load
			// concentrates.
			active[0].drive()
		} else {
			for _, sh := range active {
				sh.work <- struct{}{}
			}
			for _, sh := range active {
				<-sh.done
			}
		}
		k.drainOutboxes()
		if w > k.nowSeq {
			k.nowSeq = w
		}
	}
}

// drainOutboxes folds buffered cross-shard sends into the target shard
// queues (coordinator only, at a barrier). Heap keys already carry the
// canonical (arrival, sender lid, sender seq) order, so no sort is needed.
func (k *Kernel) drainOutboxes() {
	for _, sh := range k.shards {
		for _, m := range sh.outbox {
			m.to.eq.push(&m.ev)
		}
		clear(sh.outbox) // drop the delivered callbacks
		sh.outbox = sh.outbox[:0]
	}
}

// startDispatchers launches the per-shard window goroutines (idempotent).
func (k *Kernel) startDispatchers() {
	if k.started {
		return
	}
	k.started = true
	for _, sh := range k.shards {
		sh.work = make(chan struct{})
		sh.done = make(chan struct{})
		go func(sh *shard) {
			for range sh.work {
				sh.drive()
				sh.done <- struct{}{}
			}
		}(sh)
	}
}

// stopDispatchers terminates the window goroutines (Shutdown).
func (k *Kernel) stopDispatchers() {
	if !k.started {
		return
	}
	k.started = false
	for _, sh := range k.shards {
		close(sh.work)
	}
}

// Port is the cross-shard communication primitive of the parallel phase: a
// single-consumer message queue anchored on a receiver shard, with an
// explicit hop latency modelling the interconnect (PCIe-style) a message
// crosses between domains. Sends from any shard are legal; receives must
// come from the port's shard. Cross-shard sends require hop >= the kernel
// lookahead — that inequality is exactly what lets shards simulate a window
// ahead without missing a message from a peer.
//
// Delivery order is canonical: messages apply in (arrival instant, sender
// logical id, sender sequence) order, before any normal event at the same
// instant, so the receiver observes the same queue in every execution mode
// and under every shard count.
type Port[T any] struct {
	k       *Kernel
	name    string
	sh      *shard
	hop     Duration
	q       FIFO[T]
	waiters waitq
	handler func(at Time, v T)
	// deliverArg is deliver behind the event's func(any) signature, bound once
	// here so that a Send schedules it with the message as the argument.
	deliverArg func(v any)
}

// NewPort creates a port anchored on the given shard with the given hop
// latency (clamped to >= 0).
func NewPort[T any](k *Kernel, shard int, name string, hop Duration) *Port[T] {
	if shard < 0 || shard >= len(k.shards) {
		panic(fmt.Sprintf("sim: NewPort shard %d out of range [0,%d)", shard, len(k.shards)))
	}
	if hop < 0 {
		hop = 0
	}
	pt := &Port[T]{k: k, name: name, sh: k.shards[shard], hop: hop}
	pt.deliverArg = func(v any) { pt.deliver(v.(T)) }
	return pt
}

// Send queues v for delivery at p's current time plus the port's hop
// latency. It never blocks. Cross-shard sends must satisfy hop >= the kernel
// lookahead. On a sharded kernel the sender must carry a logical id — the
// delivery key is (arrival, sender lid, sender seq) in both execution modes,
// so the receiver's view does not depend on when (or whether) the kernel
// parallelizes. The message rides in the delivery event, so a Send of a
// pointer-shaped T allocates nothing.
func (pt *Port[T]) Send(p *Proc, v T) {
	k := pt.k
	ev := event{t: p.sh.now + Time(pt.hop), p: p, fn: pt.deliverArg, arg: v} // band 0
	if k.sharded {
		if p.lid == 0 {
			panic(fmt.Sprintf("sim: process %q sends on port %q without a logical id", p.name, pt.name))
		}
		p.evseq++
		ev.a, ev.b = p.lid, p.evseq
	} else {
		ev.a, ev.b = p.key()
	}
	if p.sh != pt.sh {
		if pt.hop < k.eps {
			panic(fmt.Sprintf("sim: port %q cross-shard hop %v below kernel lookahead %v", pt.name, pt.hop, k.eps))
		}
		if k.parallel {
			p.sh.outbox = append(p.sh.outbox, xmsg{to: pt.sh, ev: ev})
			return
		}
	}
	pt.sh.eq.push(&ev)
}

// SetHandler turns the port into a callback port: every delivery invokes fn
// inline in kernel context on the port's shard, at the delivery instant,
// instead of queueing for a Recv. The callback must not block (no Sleep,
// Recv, Acquire); it may wake processes, send on ports and fire signals.
// Handler ports are the zero-handshake completion primitive of the serving
// data plane: one heap event per message, no parked consumer process. Set
// the handler before any delivery and never combine it with Recv.
func (pt *Port[T]) SetHandler(fn func(at Time, v T)) { pt.handler = fn }

// deliver runs in kernel context on the port's shard at the arrival instant.
func (pt *Port[T]) deliver(v T) {
	if pt.handler != nil {
		pt.handler(pt.sh.now, v)
		return
	}
	pt.q.Push(v)
	if pt.waiters.Len() > 0 {
		pt.k.wake(pt.waiters.Pop())
	}
}

// Recv blocks p until a message is available and returns it. p must run on
// the port's shard.
func (pt *Port[T]) Recv(p *Proc) T {
	if p.sh != pt.sh {
		panic(fmt.Sprintf("sim: Recv on port %q from shard %d (port lives on shard %d)", pt.name, p.sh.id, pt.sh.id))
	}
	for pt.q.Len() == 0 {
		pt.waiters.Push(p)
		p.park(&pt.waiters)
	}
	return pt.q.Pop()
}
