package sim

import "fmt"

// This file provides the synchronization primitives used by simulated code:
// mailboxes (CSP-style queues), counting resources with FIFO admission,
// one-shot signals and ports (message queues with a hop latency). All
// blocking methods take the calling Proc explicitly — simulated code always
// knows which simulated thread it is running on.

// FIFO is the queue under every wait path, and under any simulated queue that
// pops from the front: a slice plus a head index, so that a pop keeps the
// backing array (q = q[1:] gives its capacity away and makes every round trip
// grow a new one). Once the dead prefix is half the slice the live tail slides
// down over it — amortized O(1), and a drained queue restarts at the front of
// the same array. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Live returns the queued elements, oldest first. The slice aliases the queue
// and is valid until its next change.
func (q *FIFO[T]) Live() []T { return q.buf[q.head:] }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) { q.buf = append(q.buf, v) }

// PushFront puts vs, in order, ahead of everything queued — into the dead
// prefix when it has room, else into a new array.
func (q *FIFO[T]) PushFront(vs []T) {
	if len(vs) <= q.head {
		q.head -= len(vs)
		copy(q.buf[q.head:], vs)
		return
	}
	q.buf, q.head = append(append(make([]T, 0, len(vs)+q.Len()), vs...), q.Live()...), 0
}

// Pop removes and returns the front element; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	q.trim(len(q.buf))
	return v
}

// remove deletes the i-th queued element.
func (q *FIFO[T]) remove(i int) {
	i += q.head
	copy(q.buf[i:], q.buf[i+1:])
	q.trim(len(q.buf) - 1)
}

// trim cuts the queue back to buf[head:n], sliding it down when due and
// zeroing the slots it lets go of.
func (q *FIFO[T]) trim(n int) {
	if 2*q.head >= n {
		n, q.head = copy(q.buf, q.buf[q.head:n]), 0
	}
	clear(q.buf[n:])
	q.buf = q.buf[:n]
}

// waitq is a FIFO of parked processes. It is the dropper handed to park: a
// process killed while waiting is removed from the queue it sits in.
type waitq struct{ FIFO[*Proc] }

func (w *waitq) drop(p *Proc) {
	for i, q := range w.Live() {
		if q == p {
			w.remove(i)
			return
		}
	}
}

// wakeAll wakes every still-parked waiter in arrival order and empties the
// queue. Waking only schedules, so no waiter can re-queue during the sweep.
func (w *waitq) wakeAll(k *Kernel) {
	for _, p := range w.Live() {
		if p.state == procParked {
			k.wake(p)
		}
	}
	clear(w.buf)
	w.buf, w.head = w.buf[:0], 0
}

// Mailbox is an unbounded FIFO queue of values passed between processes.
// Send never blocks; Recv blocks until a value is available.
type Mailbox[T any] struct {
	k       *Kernel
	name    string
	items   FIFO[T]
	waiters waitq
	closed  bool
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any](k *Kernel, name string) *Mailbox[T] {
	return &Mailbox[T]{k: k, name: name}
}

// Send enqueues v and wakes one waiting receiver. It may be called from any
// process, or from setup code before Run.
func (m *Mailbox[T]) Send(v T) {
	m.items.Push(v)
	for m.waiters.Len() > 0 {
		if w := m.waiters.Pop(); w.state == procParked {
			m.k.wake(w)
			return
		}
	}
}

// Close marks the mailbox closed and wakes all waiters; further Recv calls
// drain remaining items and then report ok=false.
func (m *Mailbox[T]) Close() {
	m.closed = true
	m.waiters.wakeAll(m.k)
}

// Recv dequeues the next value, blocking p until one arrives. ok is false if
// the mailbox was closed and drained.
func (m *Mailbox[T]) Recv(p *Proc) (v T, ok bool) {
	for {
		if m.items.Len() > 0 {
			return m.items.Pop(), true
		}
		if m.closed {
			return v, false
		}
		m.waiters.Push(p)
		p.park(&m.waiters)
	}
}

// TryRecv dequeues a value without blocking.
func (m *Mailbox[T]) TryRecv() (v T, ok bool) {
	if m.items.Len() == 0 {
		return v, false
	}
	return m.items.Pop(), true
}

// Resource is a counting resource (e.g., DMA engines, copy queues) with FIFO
// admission: requests are granted strictly in arrival order.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	inUse    int
	waiters  FIFO[resWait]
	granted  []resWait // granted units by a release, not yet resumed (see drop)
}

type resWait struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity (units).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Acquire blocks p until n units are available and takes them. n is clamped
// to the capacity so oversized requests degrade instead of deadlocking.
func (r *Resource) Acquire(p *Proc, n int) {
	if n < 1 {
		n = 1
	}
	if n > r.capacity {
		n = r.capacity
	}
	// FIFO: if anyone is ahead of us, queue even if units are free.
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters.Push(resWait{p: p, n: n})
	for {
		p.park(r)
		// Woken by our grant (inUse already bumped for us) or spuriously.
		if r.take(p) > 0 {
			return
		}
	}
}

// take forgets p's grant and returns its units: 0 when it has none.
func (r *Resource) take(p *Proc) int {
	for i, w := range r.granted {
		if w.p == p {
			r.granted = append(r.granted[:i], r.granted[i+1:]...)
			return w.n
		}
	}
	return 0
}

// drop forgets a killed waiter: queued, it leaves the queue; granted, it releases.
func (r *Resource) drop(p *Proc) {
	for i, w := range r.waiters.Live() {
		if w.p == p {
			r.waiters.remove(i)
			r.grant()
			return
		}
	}
	if n := r.take(p); n > 0 {
		r.Release(n)
	}
}

// Release returns n units and grants queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n < 1 {
		n = 1
	}
	if n > r.capacity {
		n = r.capacity
	}
	r.inUse -= n
	if r.inUse < 0 {
		r.inUse = 0
	}
	r.grant()
}

func (r *Resource) grant() {
	for r.waiters.Len() > 0 {
		w := r.waiters.Live()[0]
		if w.p.state == procDead {
			r.waiters.Pop()
			continue
		}
		if r.inUse+w.n > r.capacity {
			return
		}
		r.inUse += w.n
		r.waiters.Pop()
		r.granted = append(r.granted, w)
		r.k.wake(w.p)
	}
}

// Use acquires n units, sleeps for d, and releases — also when killed in the
// sleep — the common pattern for occupying an engine for a fixed service time.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	defer r.Release(n)
	p.Sleep(d)
}

// Signal is a one-shot broadcast event: Wait blocks until Fire is called;
// once fired, Wait returns immediately forever after.
type Signal struct {
	k       *Kernel
	fired   bool
	waiters waitq
}

// NewSignal creates an unfired signal.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Fire releases all current and future waiters. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	s.waiters.wakeAll(s.k)
}

// Wait blocks p until the signal fires.
func (s *Signal) Wait(p *Proc) {
	for !s.fired {
		s.waiters.Push(p)
		p.park(&s.waiters)
	}
}

// WaitGroup counts outstanding simulated tasks.
type WaitGroup struct {
	k       *Kernel
	n       int
	waiters waitq
}

// NewWaitGroup creates a wait group with zero outstanding tasks.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k} }

// Add adjusts the task count by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.waiters.wakeAll(w.k)
	}
}

// Done decrements the task count.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.waiters.Push(p)
		p.park(&w.waiters)
	}
}

// Port is a single-consumer message queue with a hop latency: a message sent
// at t arrives at t+hop (the interconnect it crosses) as a band-0 event, so
// it applies before the timers and wakes of its arrival instant, and
// same-instant arrivals apply in send order. The message rides in the
// delivery event, so a Send of a pointer-shaped T allocates nothing.
type Port[T any] struct {
	k       *Kernel
	hop     Duration
	q       FIFO[T]
	waiters waitq
	handler func(at Time, v T)
	// deliverArg is deliver behind the event's func(any) signature, bound once
	// here so that a Send schedules it with the message as the argument.
	deliverArg func(v any)
}

// NewPort creates a port with the given hop latency (clamped to >= 0). shard
// must be 0: the kernel has one event domain (compat.go).
func NewPort[T any](k *Kernel, shard int, name string, hop Duration) *Port[T] {
	if shard != 0 {
		panic(fmt.Sprintf("sim: NewPort %q on shard %d: the kernel has one event domain", name, shard))
	}
	if hop < 0 {
		hop = 0
	}
	pt := &Port[T]{k: k, hop: hop}
	pt.deliverArg = func(v any) { pt.deliver(v.(T)) }
	return pt
}

// Send queues v for delivery at the current time plus the port's hop
// latency. It never blocks; p is the sender, named if a handler panics.
func (pt *Port[T]) Send(p *Proc, v T) {
	ev := event{t: pt.k.now + Time(pt.hop), p: p, fn: pt.deliverArg, arg: v} // band 0
	pt.k.push(&ev)
}

// SetHandler turns the port into a callback port: every delivery invokes fn
// inline in kernel context at the delivery instant, instead of queueing for
// a Recv. The callback must not block (no Sleep, Recv, Acquire); it may wake
// processes, send on ports and fire signals. Handler ports are the
// zero-handshake completion primitive of the serving data plane: one heap
// event per message, no parked consumer process. Set the handler before any
// delivery and never combine it with Recv.
func (pt *Port[T]) SetHandler(fn func(at Time, v T)) { pt.handler = fn }

// deliver runs in kernel context at the arrival instant.
func (pt *Port[T]) deliver(v T) {
	if pt.handler != nil {
		pt.handler(pt.k.now, v)
		return
	}
	pt.q.Push(v)
	if pt.waiters.Len() > 0 {
		pt.k.wake(pt.waiters.Pop())
	}
}

// Recv blocks p until a message is available and returns it.
func (pt *Port[T]) Recv(p *Proc) T {
	for pt.q.Len() == 0 {
		pt.waiters.Push(p)
		p.park(&pt.waiters)
	}
	return pt.q.Pop()
}
