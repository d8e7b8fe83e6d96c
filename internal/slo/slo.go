// Package slo implements per-tenant service-level objectives over virtual
// time: latency/error objectives, error budgets, and multi-window burn-rate
// signals in the SRE style (a fast window catches sharp regressions, a slow
// window confirms they are sustained, and only both together fire).
//
// Everything is virtual-time and integer-bucketed: identical seeded runs
// produce identical signals, so burn-rate behaviour can be asserted in chaos
// invariants and replayed byte-identically. The serving plane feeds one
// Record per completed request and reads Signal at admission time to tighten
// degraded-mode caps before circuit breakers trip.
package slo

import (
	"fmt"

	"cronus/internal/sim"
)

// Objective is one tenant's service-level objective.
type Objective struct {
	// LatencyTarget: a request is "good" iff it completes without error
	// within this virtual-time latency.
	LatencyTarget sim.Duration
	// ErrorBudget is the tolerated bad fraction over the tracker's window
	// (e.g. 0.01 allows 1% of requests to miss the target; 0 means 0.01).
	// Burn rate 1.0 means the budget is being consumed exactly at the
	// sustainable pace.
	ErrorBudget float64
}

// The multi-window burn-rate signal: the slow window is the tracker's whole
// window and the fast one fastWindowDiv times shorter; the signal fires when
// the fast burn reaches fastBurn and the slow one slowBurn (the classic
// multi-window page thresholds).
const (
	fastWindowDiv = 12
	fastBurn      = 14.4
	slowBurn      = 6
)

// trackerBuckets is the ring resolution: the slow window is covered by this
// many buckets, so the fast window still spans several buckets and short
// bursts are not quantized away.
const trackerBuckets = 60

// bucket accumulates good/bad outcomes for one slice of virtual time.
type bucket struct {
	epoch int64 // bucket index since time zero; -1 when empty
	good  uint64
	bad   uint64
}

// Tracker accumulates one tenant's outcomes against an objective. Not safe
// for concurrent use; the serving plane records from kernel context, which
// is single-threaded by construction.
type Tracker struct {
	obj    Objective
	window sim.Duration // budget window and slow burn-rate window
	width  sim.Duration
	ring   [trackerBuckets]bucket
	// Cumulative totals (whole run, not windowed).
	good uint64
	bad  uint64
}

// NewTracker returns a tracker for the objective over window, the run's
// budget window.
func NewTracker(o Objective, window sim.Duration) *Tracker {
	if o.ErrorBudget <= 0 {
		o.ErrorBudget = 0.01
	}
	t := &Tracker{obj: o, window: window, width: window / trackerBuckets}
	if t.width <= 0 {
		t.width = 1
	}
	for i := range t.ring {
		t.ring[i].epoch = -1
	}
	return t
}

// Objective returns the tracker's objective with its default budget applied.
func (t *Tracker) Objective() Objective { return t.obj }

// Good reports whether an outcome meets the objective.
func (t *Tracker) Good(latency sim.Duration, failed bool) bool {
	return !failed && latency <= t.obj.LatencyTarget
}

// Record accumulates one completed request's outcome at virtual time now.
func (t *Tracker) Record(now sim.Time, latency sim.Duration, failed bool) {
	good := t.Good(latency, failed)
	if good {
		t.good++
	} else {
		t.bad++
	}
	epoch := int64(now) / int64(t.width)
	b := &t.ring[epoch%trackerBuckets]
	if b.epoch != epoch {
		*b = bucket{epoch: epoch}
	}
	if good {
		b.good++
	} else {
		b.bad++
	}
}

// burnOver computes the burn rate over the window ending at now: the bad
// fraction in the window divided by the error budget. An empty window burns
// nothing.
func (t *Tracker) burnOver(now sim.Time, w sim.Duration) float64 {
	lastEpoch := int64(now) / int64(t.width)
	n := int64(w) / int64(t.width)
	if n < 1 {
		n = 1
	}
	if n > trackerBuckets {
		n = trackerBuckets
	}
	var good, bad uint64
	for e := lastEpoch - n + 1; e <= lastEpoch; e++ {
		if e < 0 {
			continue
		}
		b := &t.ring[e%trackerBuckets]
		if b.epoch == e {
			good += b.good
			bad += b.bad
		}
	}
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / t.obj.ErrorBudget
}

// Signal is the burn-rate state at one instant.
type Signal struct {
	// Fast/Slow are the burn rates over the fast and slow windows.
	Fast float64
	Slow float64
	// Firing means both windows exceed their thresholds: the budget is
	// burning fast AND the burn is sustained — tighten admission.
	Firing bool
}

// Signal evaluates the multi-window burn-rate signal at virtual time now.
func (t *Tracker) Signal(now sim.Time) Signal {
	s := Signal{
		Fast: t.burnOver(now, t.window/fastWindowDiv),
		Slow: t.burnOver(now, t.window),
	}
	s.Firing = s.Fast >= fastBurn && s.Slow >= slowBurn
	return s
}

// Totals returns the cumulative good/bad counts for the whole run.
func (t *Tracker) Totals() (good, bad uint64) { return t.good, t.bad }

// BudgetConsumed returns the fraction of the cumulative error budget burned:
// bad / (total * ErrorBudget). 1.0 means the whole budget is gone; values
// above 1 mean the objective was violated.
func (t *Tracker) BudgetConsumed() float64 {
	total := t.good + t.bad
	if total == 0 {
		return 0
	}
	return float64(t.bad) / (float64(total) * t.obj.ErrorBudget)
}

// String renders the objective compactly for reports.
func (o Objective) String() string {
	return fmt.Sprintf("p100<%v budget=%.2g%%", o.LatencyTarget, o.ErrorBudget*100)
}
