package slo

import (
	"testing"

	"cronus/internal/sim"
)

func obj() Objective {
	return Objective{
		LatencyTarget: 100 * sim.Microsecond,
		ErrorBudget:   0.1,
	}
}

// window is the budget window every test tracker runs over.
const window = sim.Millisecond

func TestDefaults(t *testing.T) {
	if o := NewTracker(Objective{LatencyTarget: sim.Microsecond}, window).Objective(); o.ErrorBudget != 0.01 {
		t.Fatalf("objective = %+v, want the 1%% default budget", o)
	}
}

func TestGood(t *testing.T) {
	tr := NewTracker(obj(), window)
	if !tr.Good(100*sim.Microsecond, false) {
		t.Fatal("at-target latency should be good")
	}
	if tr.Good(101*sim.Microsecond, false) {
		t.Fatal("over-target latency should be bad")
	}
	if tr.Good(sim.Microsecond, true) {
		t.Fatal("failed request should be bad regardless of latency")
	}
}

func TestTotalsAndBudget(t *testing.T) {
	tr := NewTracker(obj(), window)
	now := sim.Time(0)
	for i := 0; i < 18; i++ {
		tr.Record(now, sim.Microsecond, false)
		now += sim.Time(10 * sim.Microsecond)
	}
	tr.Record(now, sim.Millisecond, false) // misses latency target
	tr.Record(now, sim.Microsecond, true)  // errors
	good, bad := tr.Totals()
	if good != 18 || bad != 2 {
		t.Fatalf("totals = %d/%d", good, bad)
	}
	// 2 bad of 20 with a 10% budget: exactly the whole budget.
	if got := tr.BudgetConsumed(); got != 1.0 {
		t.Fatalf("budget consumed = %v", got)
	}
}

func TestSignalFiresOnSustainedBurn(t *testing.T) {
	tr := NewTracker(obj(), window)
	// All-bad traffic with a 10% budget burns at 1/0.1 = 10 in both
	// windows — over the slow threshold (6) but under the fast one
	// (14.4), so the multi-window signal must NOT fire.
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		tr.Record(now, sim.Millisecond, false)
		now += sim.Time(20 * sim.Microsecond)
	}
	s := tr.Signal(now)
	if s.Fast != 10 || s.Slow != 10 {
		t.Fatalf("burns = %+v", s)
	}
	if s.Firing {
		t.Fatal("burn 10 is under the 14.4 fast threshold; must not fire")
	}
	// Tighten the budget so the same traffic burns at 50x: both windows
	// exceed their thresholds and the signal fires.
	o := obj()
	o.ErrorBudget = 0.02
	tr = NewTracker(o, window)
	now = 0
	for i := 0; i < 50; i++ {
		tr.Record(now, sim.Millisecond, false)
		now += sim.Time(20 * sim.Microsecond)
	}
	s = tr.Signal(now)
	if !s.Firing || s.Fast != 50 || s.Slow != 50 {
		t.Fatalf("signal = %+v", s)
	}
}

func TestFastWindowRecovers(t *testing.T) {
	o := obj()
	o.ErrorBudget = 0.02
	tr := NewTracker(o, window)
	// A burst of bad requests early in the window...
	now := sim.Time(0)
	for i := 0; i < 20; i++ {
		tr.Record(now, sim.Millisecond, false)
		now += sim.Time(5 * sim.Microsecond)
	}
	if !tr.Signal(now).Firing {
		t.Fatal("burst should fire")
	}
	// ...followed by healthy traffic: the fast window clears first and
	// the signal stops firing even though the slow window still burns.
	for i := 0; i < 40; i++ {
		tr.Record(now, sim.Microsecond, false)
		now += sim.Time(5 * sim.Microsecond)
	}
	s := tr.Signal(now)
	if s.Fast != 0 {
		t.Fatalf("fast window did not clear: %+v", s)
	}
	if s.Firing {
		t.Fatal("recovered traffic must not fire")
	}
	if s.Slow == 0 {
		t.Fatalf("slow window forgot the burst too early: %+v", s)
	}
}

func TestWindowExpiry(t *testing.T) {
	o := obj()
	o.ErrorBudget = 0.02
	tr := NewTracker(o, window)
	tr.Record(0, sim.Millisecond, false) // bad at t=0
	// Far outside the window, one good request: the stale bucket's epoch
	// no longer matches, so the window holds only the good outcome.
	later := sim.Time(10 * sim.Millisecond)
	tr.Record(later, sim.Microsecond, false)
	s := tr.Signal(later)
	if s.Fast != 0 || s.Slow != 0 {
		t.Fatalf("stale bad leaked into the window: %+v", s)
	}
	// Cumulative totals still remember everything.
	good, bad := tr.Totals()
	if good != 1 || bad != 1 {
		t.Fatalf("totals = %d/%d", good, bad)
	}
}

func TestEmptyTracker(t *testing.T) {
	tr := NewTracker(obj(), window)
	if s := tr.Signal(500); s.Fast != 0 || s.Slow != 0 || s.Firing {
		t.Fatalf("empty tracker signal = %+v", s)
	}
	if tr.BudgetConsumed() != 0 {
		t.Fatal("empty tracker burned budget")
	}
}

func TestObjectiveString(t *testing.T) {
	got := obj().String()
	want := "p100<100.00us budget=10%"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
