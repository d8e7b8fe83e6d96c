// Package sim implements the discrete-event simulation kernel that underlies
// the CRONUS reproduction: virtual time, cooperatively scheduled processes,
// mailboxes, resources and a processor-sharing engine.
//
// The kernel runs each simulated thread of execution (an mEnclave thread, an
// mOS service loop, a device engine, the untrusted OS) as a runtime coroutine
// (coro.go), and only one process ever runs at a time. There is no scheduler
// between them: the right to dispatch (the "baton") travels with control. A
// process that blocks (Sleep, mailbox receive, resource acquire) runs the
// event loop itself — kernel callbacks inline, its own wake returns with no
// switch at all. When another process's wake comes up, the blocker hands that
// process, already dispatched, to the coordinator that resumed it (Run's
// drive loop) and is suspended; drive resumes the other one. That is two
// coroutine switches — direct hand-offs between goroutines that never enter
// the Go scheduler, wake a P or touch a futex — where a goroutine per process
// cost a channel rendezvous. End conditions (deadline, Stop, error, drained
// queue) and process exit give control back to drive the same way, with
// nothing to resume. The kernel is one event domain — one clock, one queue —
// and every event carries a unique, totally ordered key, so the pop order —
// and with it every output — depends neither on the shape of the queue nor on
// which process happens to dispatch. Virtual time advances only when the
// event queue does, so simulation results are fully deterministic and
// independent of the host machine.
//
// Work that needs no thread of its own is a kernel callback: Proc.CallAt and
// Proc.CallAtArg schedule a function to run inline on whoever holds the baton
// at an instant, and a Port with a handler delivers each message the same
// way. A callback event carries its argument — the event holds fn and arg and
// the kernel calls fn(arg) — so a timer or a delivery that recurs costs one
// queue operation and no allocation: bind fn once (a method value at set-up,
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
package sim

import (
	"fmt"
	"math"
	"sort"

	"cronus/internal/metrics"
)

// Scheduler metrics: how many events the kernel dispatched, how many of the
// wakes among them it re-keyed instead of resuming their process (see
// Rescheduler), process churn, and the runnable-queue high-water mark.
// Recording is a no-op until the registry is enabled.
var (
	mEvents     = metrics.Default.Counter("sim.events.dispatched")
	mRekeyed    = metrics.Default.Counter("sim.wakes.rekeyed")
	mSpawned    = metrics.Default.Counter("sim.procs.spawned")
	mKilled     = metrics.Default.Counter("sim.procs.killed")
	gQueueDepth = metrics.Default.Gauge("sim.queue.depth")
)

// Tracer records a kernel's scheduler instants: the spawn and the kill of a
// named process. internal/trace's Collector is the one implementation; sim
// names only this method because trace depends on sim for its time types.
type Tracer interface {
	SchedInstant(at Time, kind, name string)
}

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

// event is one entry in the kernel's queue, ordered by the key (t, band, seq).
// Band 0 is a Port delivery, which applies before the timers and wakes (band
// 1) of its instant; seq is the kernel's schedule counter, so the key is
// unique and a band's same-instant events run in the order they were queued.
//
// fn events are kernel callbacks (port deliveries, Proc.CallAt/CallAtArg
// timers): they run inline on whichever process or coordinator holds the
// baton, with no switch; p is then only the process that scheduled them (it
// names the culprit if the callback panics). A callback carries its argument in
// the event — fn(arg) — so a caller that binds fn once schedules an occurrence
// without building a closure for it; a pointer-shaped arg boxes for free.
//
// The struct is at most 64 bytes — the compiler moves that much inline, and
// one byte more through a copy routine — so the generation and the band share
// a word (gb): with the generation in a word of its own (72 bytes) a self-wake
// sleep measured 36 ns against 28. The queue holds whole events in both its
// tiers, moved in and out in place: a keys-here, bodies-there split was tried
// and lost to one array of whole events (the flow-plane allocation budget
// under EXPERIMENTS.md "History").
type event struct {
	t   Time
	seq uint64
	gb  uint64 // wake generation << 8 | band; stale wakes are skipped
	p   *Proc
	fn  func(any)
	arg any
}

// wakeEvent is p's own wake at t: band 1, stamped with p's generation.
func wakeEvent(t Time, p *Proc) event {
	return event{t: t, gb: p.gen<<8 | 1, p: p}
}

func (e *event) band() uint8 { return uint8(e.gb) }

// stale reports whether a wake event was overtaken: its process has blocked
// again (or died, or is running) since the event was scheduled.
func (e *event) stale() bool {
	return e.p.state == procDead || e.gb>>8 != e.p.gen || e.p.state == procRunning
}

// keyLess orders two events by the canonical (t, band, seq) key. Keys are
// unique, so this is a strict total order.
func keyLess(x, y *event) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	if x.band() != y.band() {
		return x.band() < y.band()
	}
	return x.seq < y.seq
}

// frontCap is how many of the nearest events the queue keeps sorted in its
// front tier. The two serving planes never fill it (the benchmark's serve_exec
// peaks at 30 pending events, serve_flow at 23), so every push and pop there
// is a short slice scan: serve_exec's host time per request fell ≈12% against
// the heap alone (10 alternating pairs at seed 17). serve_cluster_faults peaks
// at 66 and sends 24% of its pushes to the heap (Kernel.Stats).
const frontCap = 64

// eventQueue is a priority queue of whole events by key, in two tiers: front
// holds the nearest events, at most frontCap of them, sorted descending so the
// minimum is its last element; back is a binary heap of everything later.
// Every front key is below every back key. Most pushes land at or near the
// front's minimum — a wake at now, a new earliest timer — and there a sorted
// slice inserts after a scan of a few events and pops by trimming, where the
// heap sifts to its root and back down its whole depth. The heap stays for a
// deep queue, where a sorted slice's insert would be linear: past the front's
// capacity the largest front event moves behind it. Keys are unique, so both
// tiers pop the same sequence a single heap would. Events go in and come out
// through pointers, and vacated slots are zeroed in both tiers.
type eventQueue struct {
	front []event
	back  eventHeap
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return len(q.front) + len(q.back) }

// min returns the minimal pending event in place; the queue must not be empty.
func (q *eventQueue) min() *event {
	if n := len(q.front); n > 0 {
		return &q.front[n-1]
	}
	return &q.back[0]
}

// push queues *e and reports whether the push reached the heap tier: e itself
// went behind the front, or the front was full and spilled its largest event.
func (q *eventQueue) push(e *event) (heap bool) {
	if len(q.back) > 0 && keyLess(&q.back[0], e) {
		q.back.push(e)
		return true
	}
	n := len(q.front)
	i := n
	for i > 0 && keyLess(&q.front[i-1], e) {
		i--
	}
	if n == cap(q.front) {
		if n == frontCap {
			q.spill(e, i)
			return true
		}
		// Grow by doubling: a kernel whose queue stays shallow keeps a
		// small front, and a deep one reaches frontCap once.
		g := make([]event, n, min(max(2*n, 8), frontCap))
		copy(g, q.front)
		q.front = g
	}
	q.front = q.front[:n+1]
	if i < n {
		copy(q.front[i+1:], q.front[i:n])
	}
	q.front[i] = *e
	return false
}

// spill queues *e, which belongs at front[i], into a full front: the heap
// takes e if it would be the front's largest event (i == 0), and the front's
// largest otherwise.
func (q *eventQueue) spill(e *event, i int) {
	f := q.front
	if i == 0 {
		q.back.push(e)
		return
	}
	q.back.push(&f[0])
	copy(f, f[1:i])
	f[i-1] = *e
}

// pop moves the minimal event into *top; the queue must not be empty.
func (q *eventQueue) pop(top *event) {
	n := len(q.front) - 1
	if n < 0 {
		q.back.pop(top)
		return
	}
	*top = q.front[n]
	q.front[n] = event{}
	q.front = q.front[:n]
}

// eventHeap is a binary min-heap of events by key, typed so that scheduling
// boxes nothing: push and pop allocate only when the backing array grows.
// The sift reads the moving event where it lies: a 64-byte event copied
// through arguments, results and temporaries was a third of the cost of a
// self-wake sleep.
type eventHeap []event

func (q *eventHeap) push(e *event) {
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
func (q *eventHeap) pop(top *event) {
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
	// resched, while set, answers for the blocked process when one of its
	// wakes comes up (see Rescheduler); resumes counts the wakes that ran it.
	resched Rescheduler
	resumes uint64
	// traceID/spanID carry the causal-tracing span context: the request
	// trace this process is currently working for and the enclosing span.
	// The kernel never reads them; internal/trace threads them through so
	// instrumentation hooks link into the right span tree without any
	// signature changes. Zero means "no context".
	traceID uint64
	spanID  uint64
}

// ID returns the process's stable identifier: its spawn order.
func (p *Proc) ID() int { return p.id }

// Kernel returns the owning simulation kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time (the same clock as Kernel.Now).
func (p *Proc) Now() Time { return p.k.now }

// Resumes returns how many times the process has run again after blocking. A
// wake its Rescheduler answered in the kernel is not a resume.
func (p *Proc) Resumes() uint64 { return p.resumes }

// SetRescheduler installs r to answer for the process while it is blocked:
// set it before the wait it covers, clear it (nil) once that wait returns. A
// killed process is never asked about, so an unwind need not clear it.
func (p *Proc) SetRescheduler(r Rescheduler) { p.resched = r }

// TraceCtx returns the process's current causal span context (trace id and
// enclosing span id); both are zero when no request context is attached.
func (p *Proc) TraceCtx() (traceID, spanID uint64) { return p.traceID, p.spanID }

// SetTraceCtx attaches a causal span context to the process (zeros detach).
// Only one process runs at a time, so no synchronization is needed.
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

// Kernel is the discrete-event scheduler. The zero value is not usable; use
// NewKernel. Only one thread of control — the baton holder — touches it at a
// time.
type Kernel struct {
	now    Time
	eq     eventQueue
	procs  map[*Proc]struct{} // every live process
	seq    uint64             // schedule counter: the last component of every key
	nextID int
	// limit bounds dispatch: only events strictly before it run (the RunUntil
	// deadline+1).
	limit Time
	// probe, set by tests only, sees the key of every dispatched event.
	probe func(t Time, band uint8, seq uint64)
	// dispatched counts the events next has dispatched; when it is about to
	// reach armAt (nonzero), armFn runs first (BeforeEvent).
	dispatched uint64
	armAt      uint64
	armFn      func()
	// The rest of the kernel's own account (Stats).
	rekeyed, switches, inline, heapPushes uint64
	queueMax                              int

	// tracer, when attached (SetTracer), records this kernel's events.
	tracer Tracer
	// atShutdown runs, in order, once Shutdown has unwound every process.
	atShutdown []func()

	stopped bool
	err     error // the first error raised by process code
	run     bool
}

// NewKernel creates an empty simulation at time zero.
func NewKernel() *Kernel {
	return &Kernel{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// SetTracer attaches t as the recorder of this kernel's events: its own
// scheduler instants, and every hook that reaches it through Tracer. A kernel
// with none records nothing. Attach it before the machine the kernel runs
// boots.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// Tracer returns the attached recorder, or nil.
func (k *Kernel) Tracer() Tracer { return k.tracer }

// setErr records the first error raised by process code.
func (k *Kernel) setErr(err error) {
	if k.err == nil {
		k.err = err
	}
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. It may be called before Run, from a running process
// or from a callback. The coroutine does not run until first resumed.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	k.nextID++
	p := &Proc{k: k, name: name, id: k.nextID, state: procQueued}
	k.procs[p] = struct{}{}
	mSpawned.Inc()
	if k.tracer != nil {
		k.tracer.SchedInstant(k.now, "spawn", name)
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
			delete(k.procs, p)
		}()
		p.state = procRunning
		p.gen++
		if p.killed {
			panic(killToken{p})
		}
		fn(p)
	})
	k.schedule(k.now, p)
	return p
}

// push stamps ev with the next schedule sequence number and queues it.
func (k *Kernel) push(ev *event) {
	k.seq++
	ev.seq = k.seq
	if k.eq.push(ev) {
		k.heapPushes++
	}
	if n := k.eq.len(); n > k.queueMax {
		k.queueMax = n
	}
}

// schedule queues p's next wake at time t.
func (k *Kernel) schedule(t Time, p *Proc) {
	ev := wakeEvent(t, p)
	k.push(&ev)
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
	k.limit = math.MaxInt64
	if deadline >= 0 {
		k.limit = deadline + 1
	}
	k.drive()
	// The baton is back: work out which end condition next ran into.
	switch {
	case k.err != nil:
		return k.err
	case k.stopped:
		return nil
	case k.eq.len() == 0:
		if len(k.procs) > 0 {
			return k.deadlock()
		}
		return nil
	}
	if deadline > k.now {
		k.now = deadline // the earliest pending event lies beyond it
	}
	return nil
}

// deadlock collects the parked-process names.
func (k *Kernel) deadlock() error {
	var names []string
	for p := range k.procs {
		if p.state == procParked {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return &DeadlockError{Parked: names}
}

// drive is the coordinator's end of the baton (RunUntil). It resumes the next
// process and gets control back when that process blocks on another's wake
// (which it hands over already dispatched), hits an end condition, or exits;
// in the last two cases drive dispatches for itself. A switch between two
// processes is thus two coroutine switches through here and no pass through
// the Go scheduler.
func (k *Kernel) drive() {
	p := k.next()
	for p != nil {
		q, _ := p.co()
		if q == nil {
			q = k.next()
		}
		p = q
	}
}

// next is the one dispatch routine, run by whoever holds the baton — the
// coordinator or a blocked process. It runs callback events inline, skips
// stale wakes and returns the next process to run, already marked running
// with the clock advanced; nil means an end condition holds (Stop, error,
// drained queue or deadline) and the baton goes back to the coordinator,
// which works out which.
func (k *Kernel) next() *Proc {
	for {
		if k.stopped || k.err != nil || k.eq.len() == 0 || k.eq.min().t >= k.limit {
			return nil
		}
		var ev event
		k.eq.pop(&ev)
		if ev.fn == nil && ev.stale() {
			continue
		}
		mEvents.Inc()
		if k.probe != nil {
			k.probe(ev.t, ev.band(), ev.seq)
		}
		gQueueDepth.Set(int64(k.eq.len()))
		if ev.t > k.now {
			k.now = ev.t
		}
		if k.dispatched+1 == k.armAt {
			fn := k.armFn
			k.armAt, k.armFn = 0, nil
			fn()
		}
		k.dispatched++
		if ev.fn != nil {
			k.call(&ev)
			continue
		}
		if ev.p.resched != nil && !ev.p.killed && k.rekey(ev.p) {
			continue
		}
		ev.p.state = procRunning
		return ev.p
	}
}

// Rescheduler answers, in kernel context, for a blocked process whose wake
// has come up: it computes exactly what the process would do if it were
// resumed at now, when all that would be is to block again. The kernel then
// does the blocking for it and keeps dispatching, and the process is spared a
// resume that would change nothing. The wake still counts as dispatched — the
// probe, BeforeEvent and sim.events.dispatched see the same events as
// without it — and its re-key is scheduled at the very point in the key
// sequence where the resumed process would have scheduled its own wake, so
// the event order is the same one, key for key.
//
// Reschedule returns what the process would do:
//   - wait != nil: wait on that Cond again (it would have found its
//     predicate false and called wait.Wait);
//   - until > now: sleep until that instant (Sleep or SleepInterruptible);
//   - anything else: run — the kernel resumes it.
//
// It must change nothing but what the resumed process would have changed
// before blocking, and must not block, wake or schedule. The kernel consults
// it only for a live wake of a process that has not been killed: a killed
// process always resumes, to unwind.
type Rescheduler interface {
	Reschedule(now Time) (until Time, wait *Cond)
}

// rekey asks p's Rescheduler about p's wake at the current instant and, when
// p would only block again, blocks it in its place — the resume bookkeeping
// of block (gen++, onKill cleared), then the Wait or Sleep the process would
// have entered. It reports whether p stays blocked.
func (k *Kernel) rekey(p *Proc) bool {
	until, wait := p.resched.Reschedule(k.now)
	if wait == nil && until <= k.now {
		return false
	}
	mRekeyed.Inc()
	k.rekeyed++
	p.gen++
	if wait != nil {
		wait.waiters.Push(p)
		p.state = procParked
		p.onKill = &wait.waiters
		return true
	}
	p.onKill = nil
	p.state = procQueued
	k.schedule(until, p)
	return true
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
	if q := p.k.next(); q != p {
		p.k.switches++
		p.yield(q)
	} else {
		p.k.inline++
	}
	p.resumes++
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

// wake makes a blocked process runnable at the current time. For a process
// in an interruptible sleep this is an early wake; for a parked process it is
// the only way to resume. No-op for running or dead processes.
func (k *Kernel) wake(p *Proc) {
	switch p.state {
	case procParked:
		p.state = procQueued
		k.schedule(k.now, p)
	case procQueued:
		k.schedule(k.now, p) // early wake; the original timer goes stale
	}
}

// Sleep advances the process's virtual time by d. Sleep(0) yields without
// advancing time (other processes scheduled "now" may run).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.state = procQueued
	p.k.schedule(p.k.now+Time(d), p)
	p.block()
}

// SleepInterruptible sleeps for at most d; another process may cut the sleep
// short with Kernel.Interrupt. It reports whether the sleep was interrupted
// before the full duration elapsed.
func (p *Proc) SleepInterruptible(d Duration) (interrupted bool) {
	if d < 0 {
		d = 0
	}
	deadline := p.k.now + Time(d)
	p.state = procQueued
	p.k.schedule(deadline, p)
	p.block()
	return p.k.now < deadline
}

// Interrupt wakes p early from an interruptible sleep (or a park). It is a
// no-op for running or dead processes.
func (k *Kernel) Interrupt(p *Proc) { k.wake(p) }

// CallAt schedules fn to run in kernel context at time t (clamped to now).
// The callback runs inline on the dispatching goroutine — whichever holds the
// baton, often a blocked process — with no handshake. It must not block (no
// Sleep, Recv, Acquire); it may wake processes, send on ports and chain
// further CallAt calls through the captured p. A panic in it ends the run as
// a *PanicError naming p. This is the cheap-timer primitive: one heap
// operation per occurrence instead of a parked process per timer.
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
	if t < p.k.now {
		t = p.k.now
	}
	ev := event{t: t, gb: 1, p: p, fn: fn, arg: arg}
	p.k.push(&ev)
}

// Kill terminates a process: if it is parked or queued it unwinds at its
// next scheduling point; a process can also kill itself, which unwinds
// immediately. Killing a dead process is a no-op.
func (k *Kernel) Kill(p *Proc) {
	if p == nil || p.state == procDead || p.killed {
		return
	}
	p.killed = true
	mKilled.Inc()
	if k.tracer != nil {
		k.tracer.SchedInstant(k.now, "kill", p.name)
	}
	if p.state == procRunning {
		// Nothing else runs while a process does, so the caller is p
		// itself: unwind in place.
		panic(killToken{p})
	}
	// Parked, or woken but not yet resumed: its queue forgets it.
	if p.onKill != nil {
		p.onKill.drop(p)
		p.onKill = nil
	}
	k.wake(p) // runnable now, cutting any pending sleep short: it unwinds in block
}

// Stop ends the simulation after the current event: Run/RunUntil returns nil
// even though service-loop processes (pollers, watchdogs) are still queued.
// Call it from the driving process when the scenario under test is complete.
func (k *Kernel) Stop() { k.stopped = true }

// Shutdown unwinds every remaining process — each is resumed once, marked
// killed, and runs its deferred calls to the end of its coroutine — so no
// goroutine outlives the kernel, then runs the AtShutdown functions. Call it
// after Run/RunUntil returns, never from inside a running process. The
// kernel cannot be used again afterwards.
func (k *Kernel) Shutdown() {
	if k.run {
		panic("sim: Shutdown during Run")
	}
	for p := range k.procs {
		if p.state == procDead {
			continue
		}
		p.killed = true
		p.state = procQueued
		p.co()
	}
	for _, fn := range k.atShutdown {
		fn()
	}
	k.atShutdown = nil
}

// AtShutdown arranges for fn to run when Shutdown has unwound every process,
// after the functions registered before it: where a device hands back what
// it holds once nothing can reach it. fn runs on Shutdown's caller, outside
// any process and any event; it must not schedule.
func (k *Kernel) AtShutdown(fn func()) { k.atShutdown = append(k.atShutdown, fn) }

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

// Dispatched returns how many events the kernel has dispatched: process
// resumptions, the wakes it re-keyed in their place (Rescheduler) and
// callbacks, not the stale wakes it skips. It is the ordinal
// BeforeEvent counts in.
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

// Stats is a kernel's account of its own dispatching since NewKernel.
type Stats struct {
	Dispatched uint64 // events dispatched: Dispatched()
	Rekeyed    uint64 // wakes a Rescheduler answered in place of a resume
	Switches   uint64 // blocks that gave the baton away: another process's wake or an end condition came first
	Inline     uint64 // blocks whose own wake came up first and returned with no switch
	Pushes     uint64 // events queued
	HeapPushes uint64 // pushes that reached the queue's heap tier (see eventQueue.push)
	QueueMax   int    // the most events ever pending at once
}

// Stats returns the kernel's counters. They are plain fields the dispatch
// path bumps as it goes, independent of the metrics registry, and reading
// them costs nothing.
func (k *Kernel) Stats() Stats {
	return Stats{
		Dispatched: k.dispatched,
		Rekeyed:    k.rekeyed,
		Switches:   k.switches,
		Inline:     k.inline,
		Pushes:     k.seq,
		HeapPushes: k.heapPushes,
		QueueMax:   k.queueMax,
	}
}

// Killed reports whether the process has been marked for termination.
func (p *Proc) Killed() bool { return p.killed }

// Dead reports whether the process has finished or been unwound.
func (p *Proc) Dead() bool { return p.state == procDead }
