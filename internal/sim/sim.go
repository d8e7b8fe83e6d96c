// Package sim implements the discrete-event simulation kernel that underlies
// the CRONUS reproduction: virtual time, cooperatively scheduled processes,
// mailboxes, resources and a processor-sharing engine.
//
// The kernel runs each simulated thread of execution (an mEnclave thread, an
// mOS service loop, a device engine, the untrusted OS) as a runtime coroutine
// (coro.go), and — in the default sequential mode — only one process ever
// runs at a time. There is no scheduler between them: the right to dispatch
// (the "baton") travels with control. A process that blocks (Sleep, mailbox
// receive, resource acquire) runs the event loop itself — kernel callbacks
// inline, its own wake returns with no switch at all. When another process's
// wake comes up, the blocker hands that process, already dispatched, to the
// coordinator that resumed it (Run's drive loop) and is suspended; drive
// resumes the other one. That is two coroutine switches — direct hand-offs
// between goroutines that never enter the Go scheduler, wake a P or touch a
// futex — where a goroutine per process cost a channel rendezvous. End
// conditions (deadline, Stop, error, drained queue, mode switch) and process
// exit give control back to drive the same way, with nothing to resume.
// Every event carries a unique, totally ordered key, so the pop order — and
// with it every output — depends neither on the shape of the heap nor on
// which process happens to dispatch. Virtual time advances only when the
// event queue does, so simulation results are fully deterministic and
// independent of the host machine.
//
// Work that needs no thread of its own is a kernel callback: Proc.CallAt and
// Proc.CallAtArg schedule a function to run inline on whoever holds the baton
// at an instant, and a Port with a handler delivers each message the same
// way. A callback event carries its argument — the event holds fn and arg and
// the kernel calls fn(arg) — so a timer or a delivery that recurs costs one
// heap operation and no allocation: bind fn once (a method value at set-up,
// the port's deliver function at NewPort), pass the occurrence's state as a
// pointer. CallAt(t, func()) is the same event with the func() as the
// argument of one static trampoline; it allocates exactly what building that
// closure allocates.
//
// Process code runs on its own goroutine but is resumed synchronously from
// the goroutine that called Run, and what ends one ends the other: a panic in
// a process is caught and returned by Run as a *PanicError, while
// runtime.Goexit — which is what t.Fatal and t.FailNow call — unwinds the
// process and then ends the goroutine that called Run, its deferred calls
// included. Tests should therefore report from process code with t.Error
// and keep t.Fatal for the goroutine that owns the kernel.
//
// A simulation has one lifecycle, and Run (the package function) is it:
// create a kernel, run a body as the process "main", Stop when the body
// returns, Run, and always Shutdown. No non-test file outside this package
// calls NewKernel or Kernel.Shutdown (a source scan in internal/experiments
// holds the tree to that).
//
// The kernel can additionally be sharded (EnableSharding): processes are
// placed on shards (SpawnOn) and, after Parallelize, shards simulate
// concurrently on their own goroutines up to a conservative lookahead
// horizon, exchanging messages only through Port values whose hop latency is
// at least the configured lookahead. Event ordering stays deterministic and
// independent of the shard count — see shard.go and DESIGN.md §13.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"cronus/internal/metrics"
)

// Scheduler metrics: how many events the kernel dispatched, process churn,
// and the runnable-queue high-water mark. Recording is a no-op until the
// registry is enabled.
var (
	mEvents     = metrics.Default.Counter("sim.events.dispatched")
	mSpawned    = metrics.Default.Counter("sim.procs.spawned")
	mKilled     = metrics.Default.Counter("sim.procs.killed")
	gQueueDepth = metrics.Default.Gauge("sim.queue.depth")
)

// traceHook, when installed, observes scheduler lifecycle transitions
// ("spawn"/"kill" of a named process). The sim package cannot depend on
// internal/trace (trace depends on sim for Time), so the trace package
// installs itself here at init; the hook owns the enabled check.
var traceHook func(at Time, kind, name string)

// SetTraceHook installs the scheduler lifecycle observer. Pass nil to remove.
func SetTraceHook(f func(at Time, kind, name string)) { traceHook = f }

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration for readability.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders the instant as a duration since the epoch.
func (t Time) String() string { return Duration(t).String() }

// String renders the duration with a unit scaled to its magnitude.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < 10*Millisecond:
		return fmt.Sprintf("%.2fus", float64(d)/1e3)
	case d < 10*Second:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(d)/1e9)
	}
}

// Seconds reports the duration as a floating point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Milliseconds reports the duration as a floating point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / 1e6 }

// event is one entry in a shard's queue. The key is (t, band, a, b):
//
//   - sequential mode: band 1, a 0, b a global schedule sequence — exactly
//     the (time, sequence) order of the original single-queue kernel, and
//     independent of how processes are assigned to shards (the global
//     sequence makes the multi-queue merge behave as one queue);
//   - parallel mode: a is the logical id of the process the event belongs
//     to (or of the sender, for port deliveries) and b a per-process
//     counter, so the order is a deterministic function of the simulated
//     program alone — byte-identical for every shard count and assignment;
//   - band 0 is reserved for Port deliveries, which apply before normal
//     events at the same instant regardless of mode.
//
// fn events are kernel callbacks (port deliveries, Proc.CallAt/CallAtArg
// timers): they run inline on whichever process or coordinator holds the
// baton, with no switch; p is then only the process that scheduled them (it
// names the culprit if the callback panics). A callback carries its argument in
// the event — fn(arg) — so a caller that binds fn once schedules an occurrence
// without building a closure for it; a pointer-shaped arg boxes for free.
//
// The struct is 64 bytes — the compiler moves that much inline, and one byte
// more through a copy routine — so the generation and the band share a word
// (gb): with the generation in a word of its own (72 bytes) a self-wake sleep
// measured 36 ns against 28. The heap stays one array of whole events: a
// keys-here, bodies-there split was tried and lost to it (the flow-plane
// allocation budget under EXPERIMENTS.md "History").
type event struct {
	t    Time
	a, b uint64
	gb   uint64 // wake generation << 8 | band; stale wakes are skipped
	p    *Proc
	fn   func(any)
	arg  any
}

// wakeEvent keys p's own wake at t: band 1, stamped with p's generation.
func wakeEvent(t Time, a, b uint64, p *Proc) event {
	return event{t: t, a: a, b: b, gb: p.gen<<8 | 1, p: p}
}

func (e *event) band() uint8 { return uint8(e.gb) }

// stale reports whether a wake event was overtaken: its process has blocked
// again (or died, or is running) since the event was scheduled.
func (e *event) stale() bool {
	return e.p.state == procDead || e.gb>>8 != e.p.gen || e.p.state == procRunning
}

// keyLess orders two events by the canonical (t, band, a, b) key. Keys are
// unique, so this is a strict total order.
func keyLess(x, y *event) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	if x.band() != y.band() {
		return x.band() < y.band()
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// eventQueue is a binary min-heap of events by key, typed so that scheduling
// boxes nothing: push and pop allocate only when the backing array grows.
// Events go in and come out through pointers, and the sift reads the moving
// event where it lies: a 64-byte event copied through arguments, results and
// temporaries was a third of the cost of a self-wake sleep.
type eventQueue []event

func (q *eventQueue) push(e *event) {
	h := append(*q, event{})
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !keyLess(e, &h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = *e
	*q = h
}

// pop moves the minimal event into *top. The vacated slot is zeroed so the
// queue does not keep a popped *Proc, callback or callback argument reachable.
func (q *eventQueue) pop(top *event) {
	h := *q
	n := len(h) - 1
	*top = h[0]
	e := &h[n]
	i := 0
	for n > 0 {
		c := 2*i + 1
		if c+1 < n && keyLess(&h[c+1], &h[c]) {
			c++
		}
		if c >= n || !keyLess(&h[c], e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if i != n {
		h[i] = *e
	}
	*e = event{}
	*q = h[:n]
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procQueued  procState = iota // has a pending event in the queue
	procParked                   // blocked with no pending event (waiting for a wake)
	procRunning                  // currently executing
	procDead                     // finished or killed
)

// killToken is the panic value used to unwind a killed process. It is
// recovered by the process trampoline and never escapes the kernel.
type killToken struct{ p *Proc }

// Proc is a simulated thread of execution. All blocking simulation
// operations are methods on the Proc that represents the caller.
type Proc struct {
	k    *Kernel
	sh   *shard
	name string
	id   int
	// co resumes the process's coroutine from a coordinator (drive, Shutdown)
	// and returns what the process handed back: the next process to run, nil
	// at an end condition, ok=false once the process has exited. yield is the
	// other end, valid on the coroutine itself once it has started.
	co     func() (next *Proc, ok bool)
	yield  func(next *Proc) bool
	state  procState
	gen    uint64
	killed bool
	// onKill is the wait queue the process last parked on, until it resumes:
	// a kill before then drops the process from it eagerly (in kernel context).
	onKill dropper
	// lid is the application-assigned logical id (SpawnOn). In the parallel
	// phase it keys every event the process schedules, making event order a
	// function of the simulated program rather than of shard placement.
	lid uint64
	// evseq counts events scheduled on behalf of this process in the
	// parallel phase; (lid, evseq) is the placement-invariant event key.
	evseq    uint64
	childCtr uint64
	// traceID/spanID carry the causal-tracing span context: the request
	// trace this process is currently working for and the enclosing span.
	// The kernel never reads them; internal/trace threads them through so
	// instrumentation hooks link into the right span tree without any
	// signature changes. Zero means "no context".
	traceID uint64
	spanID  uint64
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// ID returns the process's stable identifier: spawn order for processes
// created in sequential mode, a logical-id-derived value for processes
// spawned during the parallel phase (so the id is independent of shard
// placement and host interleaving).
func (p *Proc) ID() int { return p.id }

// Kernel returns the owning simulation kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time as seen by this process (its shard's
// clock; identical to Kernel.Now in the unsharded kernel).
func (p *Proc) Now() Time { return p.sh.now }

// TraceCtx returns the process's current causal span context (trace id and
// enclosing span id); both are zero when no request context is attached.
func (p *Proc) TraceCtx() (traceID, spanID uint64) { return p.traceID, p.spanID }

// SetTraceCtx attaches a causal span context to the process (zeros detach).
// Only one process runs at a time on a given shard, so no synchronization is
// needed.
func (p *Proc) SetTraceCtx(traceID, spanID uint64) {
	p.traceID = traceID
	p.spanID = spanID
}

// DeadlockError is returned by Run when no events remain but live processes
// are still parked waiting for wakes that can never arrive.
type DeadlockError struct {
	Parked []string // names of the parked processes
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d process(es) parked forever: %v", len(e.Parked), e.Parked)
}

// PanicError wraps a panic raised by process code so Run can surface it as an
// error without tearing down the host test process.
type PanicError struct {
	Proc  string
	Value any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.Proc, e.Value)
}

// shard is one event domain of the kernel: its own clock and queue. The
// unsharded kernel is a single shard. Only one thread of control — the baton
// holder — touches a shard at a time: in sequential mode one baton covers
// every shard, during a parallel window each active shard has its own.
type shard struct {
	k     *Kernel
	id    int
	now   Time
	eq    eventQueue
	procs map[*Proc]struct{} // all live processes on this shard

	// outbox buffers cross-shard port sends made during a parallel window;
	// the coordinator drains it into the target shards at the barrier.
	outbox []xmsg

	// work/done start a window on the dispatcher goroutine and report its
	// completion (started lazily at Parallelize).
	work chan struct{}
	done chan struct{}
}

// xmsg is one buffered cross-shard send: the delivery event, already keyed
// (arrival instant, sender lid, sender seq), and the shard it is bound for.
type xmsg struct {
	to *shard
	ev event
}

// Kernel is the discrete-event scheduler. The zero value is not usable; use
// NewKernel.
type Kernel struct {
	shards []*shard
	nowSeq Time   // global clock of the sequential mode
	gseq   uint64 // global schedule sequence of the sequential mode
	nextID int
	eps    Duration // lookahead: minimum cross-shard port hop latency
	seqCur *Proc    // process last dispatched in sequential mode
	// limit bounds dispatch: only events strictly before it run. It is the
	// RunUntil deadline+1 in sequential mode and the window horizon in the
	// parallel phase, written by the coordinator while it holds every baton.
	limit  Time
	active []*shard // runParallel's per-window scratch
	// probe, set by tests only, sees the key of every dispatched event.
	probe func(shard int, t Time, band uint8, a, b uint64)
	// dispatched counts the events next has dispatched in sequential mode;
	// when it is about to reach armAt (nonzero), armFn runs first (BeforeEvent).
	dispatched uint64
	armAt      uint64
	armFn      func()

	sharded  bool // EnableSharding called
	parallel bool // currently in the parallel phase (toggled at safe points)
	everPar  bool // Parallelize happened (Sequentialize is meaningful)
	pendPar  bool // Parallelize requested; switch at next dispatch boundary
	started  bool // shard dispatcher goroutines are running

	live    atomic.Int64
	stopped atomic.Bool
	seqReq  atomic.Bool // Sequentialize requested (checked by shard windows)
	errSet  atomic.Bool
	errMu   sync.Mutex
	err     error
	run     bool
}

// NewKernel creates an empty simulation at time zero with a single shard.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.shards = []*shard{newShard(k, 0)}
	return k
}

func newShard(k *Kernel, id int) *shard {
	return &shard{k: k, id: id, procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time of the sequential clock. It must not
// be called from process code during the parallel phase — shard clocks are
// decoupled there; use Proc.Now instead (the kernel panics to surface such
// callers deterministically).
func (k *Kernel) Now() Time {
	if k.parallel {
		panic("sim: Kernel.Now during the parallel phase (use Proc.Now)")
	}
	return k.nowSeq
}

// setErr records the first error raised by process code.
func (k *Kernel) setErr(err error) {
	k.errMu.Lock()
	if k.err == nil {
		k.err = err
		k.errSet.Store(true)
	}
	k.errMu.Unlock()
}

func (k *Kernel) getErr() error {
	if !k.errSet.Load() {
		return nil
	}
	k.errMu.Lock()
	defer k.errMu.Unlock()
	return k.err
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time, on the shard of the spawning process (shard 0 when
// called from outside process code). It may be called before Run or from
// inside a running process, but not during the parallel phase — use
// Proc.Spawn there.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.seqNow(), name, fn)
}

func (k *Kernel) seqNow() Time {
	if k.parallel {
		panic("sim: Kernel.Spawn during the parallel phase (use Proc.Spawn)")
	}
	return k.nowSeq
}

// SpawnAt creates a process running fn, starting at time t (which must not be
// in the past; earlier times are clamped to now).
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	if k.parallel {
		panic("sim: Kernel.SpawnAt during the parallel phase (use Proc.Spawn)")
	}
	if t < k.nowSeq {
		t = k.nowSeq
	}
	sh := k.shards[0]
	if k.seqCur != nil && k.seqCur.state == procRunning {
		sh = k.seqCur.sh
	}
	k.nextID++
	return k.spawn(sh, t, name, fn, 0, k.nextID)
}

// spawn creates the process structure and its coroutine (which does not run
// until first resumed) and schedules its first event. Callers supply the
// shard, logical id and stable id appropriate to the current mode.
func (k *Kernel) spawn(sh *shard, t Time, name string, fn func(p *Proc), lid uint64, id int) *Proc {
	p := &Proc{
		k:     k,
		sh:    sh,
		name:  name,
		id:    id,
		lid:   lid,
		state: procQueued,
	}
	k.live.Add(1)
	sh.procs[p] = struct{}{}
	mSpawned.Inc()
	if traceHook != nil {
		traceHook(t, "spawn", name)
	}
	p.co = newCoro(func(yield func(*Proc) bool) {
		p.yield = yield
		// Returning from here is the process exit: co reports ok=false and
		// whoever resumed the process (drive, Shutdown) carries on.
		defer func() {
			r := recover()
			if r != nil {
				if _, ok := r.(killToken); !ok {
					k.setErr(&PanicError{Proc: p.name, Value: r})
				}
			}
			p.state = procDead
			k.live.Add(-1)
			delete(sh.procs, p)
		}()
		p.state = procRunning
		p.gen++
		if p.killed {
			panic(killToken{p})
		}
		fn(p)
	})
	sh.schedule(t, p)
	return p
}

// schedule queues p's next event at time t with the mode-appropriate key.
func (sh *shard) schedule(t Time, p *Proc) {
	a, b := p.key()
	ev := wakeEvent(t, a, b, p)
	sh.eq.push(&ev)
}

// Run executes events until the queue drains. It returns nil on a clean
// finish (all processes done), a *DeadlockError if parked processes remain,
// or a *PanicError if process code panicked.
func (k *Kernel) Run() error {
	return k.RunUntil(-1)
}

// RunUntil executes events with timestamps <= deadline (deadline < 0 means no
// limit). Processes with later events stay queued, so the simulation can be
// resumed by calling RunUntil again.
func (k *Kernel) RunUntil(deadline Time) error {
	if k.run {
		panic("sim: Kernel.Run is not reentrant")
	}
	k.run = true
	defer func() { k.run = false }()
	for {
		if k.pendPar {
			k.pendPar = false
			k.beginParallel()
		}
		if k.parallel {
			err, finished := k.runParallel(deadline)
			if finished {
				return err
			}
			continue // Sequentialize switched the mode; keep going below
		}
		k.limit = math.MaxInt64
		if deadline >= 0 {
			k.limit = deadline + 1
		}
		k.shards[0].drive()
		// The baton is back: work out which end condition next ran into.
		if k.pendPar {
			continue
		}
		if err := k.getErr(); err != nil {
			return err
		}
		if k.stopped.Load() {
			return nil
		}
		if k.minShard() == nil {
			if k.live.Load() > 0 {
				return k.deadlock()
			}
			return nil
		}
		k.nowSeq = deadline // the earliest pending event lies beyond it
		return nil
	}
}

// minShard returns the shard holding the globally minimal pending event, or
// nil when every queue is empty. Queue heads are compared in place.
func (k *Kernel) minShard() *shard {
	var best *shard
	for _, sh := range k.shards {
		if len(sh.eq) > 0 && (best == nil || keyLess(&sh.eq[0], &best.eq[0])) {
			best = sh
		}
	}
	return best
}

// deadlock collects the parked-process names across shards.
func (k *Kernel) deadlock() error {
	var names []string
	for _, sh := range k.shards {
		for p := range sh.procs {
			if p.state == procParked {
				names = append(names, p.name)
			}
		}
	}
	sort.Strings(names)
	return &DeadlockError{Parked: names}
}

// drive is the coordinator's end of the baton: RunUntil in sequential mode, a
// shard window in the parallel phase. It resumes the next process and gets
// control back when that process blocks on another's wake (which it hands
// over already dispatched), hits an end condition, or exits; in the last two
// cases drive dispatches for itself. A switch between two processes is thus
// two coroutine switches through here and no pass through the Go scheduler.
func (sh *shard) drive() {
	p := sh.next()
	for p != nil {
		q, _ := p.co()
		if q == nil {
			q = sh.next()
		}
		p = q
	}
}

// next is the one dispatch routine, run by whoever holds the baton — a
// coordinator or a blocked process — for the unsharded kernel, the sequential
// shard merge and a parallel window alike. It runs callback events inline,
// skips stale wakes and returns the next process to run, already marked
// running with the clocks advanced; nil means an end condition holds (Stop,
// error, mode switch, drained queue, deadline or horizon) and the baton goes
// back to the coordinator, which works out which. Stopping early is always
// safe in a window: running less before a barrier never breaks the lookahead.
func (sh *shard) next() *Proc {
	k := sh.k
	for {
		if k.stopped.Load() || k.errSet.Load() {
			return nil
		}
		if k.parallel {
			if k.seqReq.Load() {
				return nil
			}
		} else if sh = k.minShard(); sh == nil || k.pendPar {
			return nil // (the sequential merge dispatches from every shard)
		}
		if len(sh.eq) == 0 || sh.eq[0].t >= k.limit {
			return nil
		}
		var ev event
		sh.eq.pop(&ev)
		if ev.fn == nil && ev.stale() {
			continue
		}
		mEvents.Inc()
		if k.probe != nil {
			k.probe(sh.id, ev.t, ev.band(), ev.a, ev.b)
		}
		if !k.sharded {
			gQueueDepth.Set(int64(len(sh.eq)))
		}
		if ev.t > sh.now {
			sh.now = ev.t
		}
		if !k.parallel {
			if ev.t > k.nowSeq {
				k.nowSeq = ev.t
			}
			if k.dispatched+1 == k.armAt {
				fn := k.armFn
				k.armAt, k.armFn = 0, nil
				fn()
			}
			k.dispatched++
		}
		if ev.fn != nil {
			k.call(&ev)
			continue
		}
		ev.p.state = procRunning
		if !k.parallel {
			k.seqCur = ev.p
		}
		return ev.p
	}
}

// call runs a callback event. The goroutine it runs on may be a blocked
// process that merely holds the baton, so a panic must not unwind it: it is
// recorded against the process that scheduled the callback and ends the run.
func (k *Kernel) call(ev *event) {
	defer func() {
		if r := recover(); r != nil {
			k.setErr(&PanicError{Proc: ev.p.name, Value: r})
		}
	}()
	ev.fn(ev.arg)
}

// block takes the baton and dispatches until this process's own wake comes
// up (return at once, no switch); if another process is due first it is
// handed to the coordinator to resume, at an end condition nil is, and the
// process is suspended until it is resumed in turn. On resume the wake
// generation is bumped so pending duplicate events become stale. It panics
// with the kill token if the process was killed while blocked.
func (p *Proc) block() {
	// Already marked killed (deferred cleanup blocking during an unwind,
	// or Shutdown): terminate without suspending again. The baton is not
	// lost because the coordinator regains control when the coroutine ends.
	if p.killed {
		p.onKill = nil
		panic(killToken{p})
	}
	if q := p.sh.next(); q != p {
		p.yield(q)
	}
	p.gen++
	p.onKill = nil
	if p.killed {
		panic(killToken{p})
	}
}

// dropper is a wait queue that can forget a killed process it parked or woke.
type dropper interface{ drop(p *Proc) }

// park blocks the process with no pending event; some other process must
// Wake it. onKill, if non-nil, drops the process when it is killed parked.
func (p *Proc) park(onKill dropper) {
	p.state = procParked
	p.onKill = onKill
	p.block()
}

// wake makes a blocked process runnable at the current time (the target's
// shard clock, or the global clock if that is ahead in sequential mode). For
// a process in an interruptible sleep this is an early wake; for a parked
// process it is the only way to resume. No-op for running or dead processes.
// During the parallel phase the caller must run on p's shard — cross-shard
// communication goes through Ports.
func (k *Kernel) wake(p *Proc) {
	sh := p.sh
	t := sh.now
	if !k.parallel && k.nowSeq > t {
		t = k.nowSeq
	}
	switch p.state {
	case procParked:
		p.state = procQueued
		sh.schedule(t, p)
	case procQueued:
		sh.schedule(t, p) // early wake; the original timer goes stale
	}
}

// Sleep advances the process's virtual time by d. Sleep(0) yields without
// advancing time (other processes scheduled "now" may run).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.state = procQueued
	p.sh.schedule(p.sh.now+Time(d), p)
	p.block()
}

// SleepInterruptible sleeps for at most d; another process may cut the sleep
// short with Kernel.Interrupt. It reports whether the sleep was interrupted
// before the full duration elapsed.
func (p *Proc) SleepInterruptible(d Duration) (interrupted bool) {
	if d < 0 {
		d = 0
	}
	deadline := p.sh.now + Time(d)
	p.state = procQueued
	p.sh.schedule(deadline, p)
	p.block()
	return p.sh.now < deadline
}

// Interrupt wakes p early from an interruptible sleep (or a park). It is a
// no-op for running or dead processes.
func (k *Kernel) Interrupt(p *Proc) { k.wake(p) }

// Kill terminates a process: if it is parked or queued it unwinds at its
// next scheduling point; a process can also kill itself, which unwinds
// immediately. Killing a dead process is a no-op. During the parallel phase
// only same-shard kills are legal (failure paths call Proc.Sequentialize
// first).
func (k *Kernel) Kill(p *Proc) {
	if p == nil || p.state == procDead || p.killed {
		return
	}
	p.killed = true
	mKilled.Inc()
	if traceHook != nil {
		traceHook(k.killNow(p), "kill", p.name)
	}
	if p.state == procRunning {
		// Nothing else runs while a process does (on its shard, in the
		// parallel phase), so the caller is p itself: unwind in place.
		panic(killToken{p})
	}
	// Parked, or woken but not yet resumed: its queue forgets it.
	if p.onKill != nil {
		p.onKill.drop(p)
		p.onKill = nil
	}
	k.wake(p) // runnable now, cutting any pending sleep short: it unwinds in block
}

// killNow picks the timestamp reported to the trace hook for a kill.
func (k *Kernel) killNow(p *Proc) Time {
	if k.parallel {
		return p.sh.now
	}
	return k.nowSeq
}

// Stop ends the simulation after the current event: Run/RunUntil returns nil
// even though service-loop processes (pollers, watchdogs) are still queued.
// Call it from the driving process when the scenario under test is complete.
// In a sharded run, Sequentialize before Stop so the cut is deterministic.
func (k *Kernel) Stop() { k.stopped.Store(true) }

// Shutdown unwinds every remaining process — each is resumed once, marked
// killed, and runs its deferred calls to the end of its coroutine — so no
// goroutine outlives the kernel. Call it after Run/RunUntil returns, never
// from inside a running process. The kernel cannot be used again afterwards.
func (k *Kernel) Shutdown() {
	if k.run {
		panic("sim: Shutdown during Run")
	}
	k.stopDispatchers()
	for _, sh := range k.shards {
		for p := range sh.procs {
			if p.state == procDead {
				continue
			}
			p.killed = true
			p.state = procQueued
			p.co()
		}
	}
}

// Run is the one kernel lifecycle: it creates a kernel, runs body as the
// process "main", stops the simulation when body returns (service loops —
// executors, watchdogs — may still be queued), runs it, and always shuts it
// down, so no process outlives the call. It returns Run's error (a
// *PanicError, a *DeadlockError) before body's.
func Run(body func(p *Proc) error) error {
	k := NewKernel()
	var bodyErr error
	k.Spawn("main", func(p *Proc) {
		defer k.Stop()
		bodyErr = body(p)
	})
	err := k.Run()
	k.Shutdown()
	if err != nil {
		return err
	}
	return bodyErr
}

// Dispatched returns how many events the kernel has dispatched in sequential
// mode: process resumptions and callbacks, not the stale wakes it skips. It
// is the ordinal BeforeEvent counts in.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// BeforeEvent arms fn to run once, just before the n-th dispatched event
// (Dispatched() reads n-1 while it runs); a later call re-arms, n = 0
// disarms. fn runs in kernel context, on whichever process or coordinator
// holds the baton, at the virtual instant of the event it precedes — the
// hook a sweep uses to inject a fault before every event of a scenario in
// turn. It must not block. The event still dispatches after fn returns; a
// process fn kills unwinds there. Unarmed, it costs the dispatch loop one
// compare and one increment.
func (k *Kernel) BeforeEvent(n uint64, fn func()) {
	if n == 0 || fn == nil {
		n, fn = 0, nil
	}
	k.armAt, k.armFn = n, fn
}

// Killed reports whether the process has been marked for termination.
func (p *Proc) Killed() bool { return p.killed }

// Dead reports whether the process has finished or been unwound.
func (p *Proc) Dead() bool { return p.state == procDead }
