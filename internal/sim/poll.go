package sim

// This file supports event-efficient modeling of polling loops. A simulated
// poller that re-reads a word every quantum costs the event queue O(wait/
// quantum) timer events even though nothing changes between reads. Cond lets
// the waiter park until a producer announces progress (one wakeup event), and
// NextPollInstant recovers the virtual instant at which the polling loop
// would have performed its next read — so the optimized waiter observes state
// at exactly the same virtual times, and virtual-time results are unchanged.

// Cond is an edge-triggered broadcast: Wait parks until the next Broadcast.
// Unlike Signal it does not latch — a Broadcast with no waiters is lost, so
// callers must re-check their predicate after waking (the standard condition-
// variable discipline). Wakeups are delivered in Wait order.
type Cond struct {
	k       *Kernel
	waiters waitq
}

// NewCond creates a condition with no waiters.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks p until the next Broadcast. Spurious wakeups are possible (e.g.
// a broadcast for a different predicate); callers loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters.Push(p)
	p.park(&c.waiters)
}

// Broadcast wakes every currently parked waiter, in Wait order. It never
// blocks and may be called from any proc or from callback context.
func (c *Cond) Broadcast() { c.waiters.wakeAll(c.k) }

// NextPollInstant returns the earliest instant in the series {first, first+
// period, first+2·period, ...} that is ≥ now: the virtual time at which a
// polling loop with read instants on that grid would next observe state.
// period must be positive.
func NextPollInstant(first Time, period Duration, now Time) Time {
	if period <= 0 {
		panic("sim: NextPollInstant period must be positive")
	}
	if now <= first {
		return first
	}
	k := (Duration(now-first) + period - 1) / period // ceil
	return first + Time(k)*Time(period)
}
