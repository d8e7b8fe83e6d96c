package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		p.Sleep(250)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 350 {
		t.Fatalf("end time = %d, want 350", end)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		k.Spawn("a", func(p *Proc) {
			p.Sleep(10)
			order = append(order, "a10")
			p.Sleep(20) // at 30
			order = append(order, "a30")
		})
		k.Spawn("b", func(p *Proc) {
			p.Sleep(20)
			order = append(order, "b20")
			p.Sleep(20) // at 40
			order = append(order, "b40")
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := []string{"a10", "b20", "a30", "b40"}
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("order %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Sleep(5)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestMailboxBlocksAndDelivers(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k, "mb")
	var got []int
	var recvTime Time
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := mb.Recv(p)
			if !ok {
				t.Errorf("mailbox closed early")
				return
			}
			got = append(got, v)
		}
		recvTime = p.Now()
	})
	k.Spawn("send", func(p *Proc) {
		p.Sleep(50)
		mb.Send(1)
		p.Sleep(50)
		mb.Send(2)
		mb.Send(3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if recvTime != 100 {
		t.Fatalf("recv finished at %d, want 100", recvTime)
	}
}

func TestMailboxCloseReleasesReceiver(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k, "mb")
	closedSeen := false
	k.Spawn("recv", func(p *Proc) {
		_, ok := mb.Recv(p)
		closedSeen = !ok
	})
	k.Spawn("close", func(p *Proc) {
		p.Sleep(10)
		mb.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !closedSeen {
		t.Fatal("receiver did not observe close")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int](k, "mb")
	k.Spawn("stuck", func(p *Proc) {
		mb.Recv(p)
	})
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != 1 || dl.Parked[0] != "stuck" {
		t.Fatalf("parked = %v", dl.Parked)
	}
}

func TestPanicSurfacesAsError(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	err := k.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Proc != "bad" || pe.Value != "boom" {
		t.Fatalf("panic error = %+v", pe)
	}
}

func TestResourceFIFOAndCapacity(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dma", 2)
	var order []string
	use := func(name string, at Time, hold Duration) {
		k.Spawn(name, func(p *Proc) {
			p.Sleep(Duration(at))
			r.Acquire(p, 1)
			order = append(order, name+"+")
			p.Sleep(hold)
			r.Release(1)
			order = append(order, name+"-")
		})
	}
	use("a", 0, 100)
	use("b", 0, 100)
	use("c", 10, 10) // must wait for a or b
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// a and b release at t=100; their timers were queued before c's grant
	// wake, so both releases run before c enters.
	want := []string{"a+", "b+", "a-", "b-", "c+", "c-"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestResourceOversizedRequestClamped(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 4)
	done := false
	k.Spawn("big", func(p *Proc) {
		r.Acquire(p, 100) // clamped to 4
		r.Release(100)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("oversized acquire deadlocked")
	}
}

func TestKillParkedProcess(t *testing.T) {
	t.Run("mailbox", func(t *testing.T) {
		k := NewKernel()
		mb := NewMailbox[int](k, "mb")
		var victim *Proc
		victim = k.Spawn("victim", func(p *Proc) {
			mb.Recv(p)
			t.Error("victim should never receive")
		})
		k.Spawn("killer", func(p *Proc) {
			p.Sleep(10)
			k.Kill(victim)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !victim.Dead() {
			t.Fatal("victim still alive")
		}
	})
	// A partition's recovery kills its procs wherever they are parked, a
	// device engine's queue included: the killed waiter leaves the queue, and
	// the waiter it was blocking is granted at once, not at the next release.
	t.Run("resource", func(t *testing.T) {
		k := NewKernel()
		r := NewResource(k, "copy", 2)
		var victim *Proc
		var grantedAt Time = -1
		k.Spawn("holder", func(p *Proc) {
			r.Use(p, 1, 100)
		})
		victim = k.Spawn("victim", func(p *Proc) {
			p.Sleep(1)
			r.Acquire(p, 2) // one unit is free: not enough, so it queues
			t.Error("victim was granted")
		})
		k.Spawn("next", func(p *Proc) {
			p.Sleep(2)
			r.Acquire(p, 1) // FIFO: queued behind the victim although a unit is free
			grantedAt = p.Now()
			p.Sleep(10)
			r.Release(1)
		})
		k.Spawn("killer", func(p *Proc) {
			p.Sleep(10)
			k.Kill(victim)
			if r.waiters.Len() != 0 || r.inUse != 2 {
				t.Errorf("after the kill: %d waiters, %d units in use; want 0, 2 (holder and next)", r.waiters.Len(), r.inUse)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !victim.Dead() {
			t.Fatal("victim still alive")
		}
		if grantedAt != 10 {
			t.Errorf("next was granted at %d, want 10 (the kill)", grantedAt)
		}
		if r.inUse != 0 || r.waiters.Len() != 0 {
			t.Errorf("after every release: %d units in use, %d waiters; want 0, 0", r.inUse, r.waiters.Len())
		}
	})
}

// TestKilledProcessReturnsResourceUnits: a process killed while it holds a
// Resource's units, or after a release granted it units but before it
// resumed, gives them back; the next waiter is not locked out for good.
func TestKilledProcessReturnsResourceUnits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		victim func(r *Resource, p *Proc)
		killAt Duration
	}{
		// Killed in Use's service time.
		{"holding", func(r *Resource, p *Proc) { r.Use(p, 1, 100) }, 10},
		// Queued behind a holder that releases at 10; the kill lands at 10
		// too, after the release granted the victim its unit.
		{"granted", func(r *Resource, p *Proc) {
			p.Sleep(1)
			r.Use(p, 1, 100)
		}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			r := NewResource(k, "pipe", 1)
			if tc.name == "granted" {
				k.Spawn("holder", func(p *Proc) { r.Use(p, 1, 10) })
			}
			victim := k.Spawn("victim", func(p *Proc) { tc.victim(r, p) })
			k.Spawn("killer", func(p *Proc) {
				p.Sleep(tc.killAt)
				k.Kill(victim)
			})
			var nextAt Time = -1
			k.Spawn("next", func(p *Proc) {
				p.Sleep(20)
				r.Use(p, 1, 5)
				nextAt = p.Now()
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if nextAt != 25 {
				t.Errorf("next finished at %d, want 25", nextAt)
			}
			if r.inUse != 0 || r.waiters.Len() != 0 || len(r.granted) != 0 {
				t.Errorf("%d units in use, %d waiters, %d grants; want none", r.inUse, r.waiters.Len(), len(r.granted))
			}
		})
	}
}

func TestKillSleepingProcess(t *testing.T) {
	k := NewKernel()
	reached := false
	victim := k.Spawn("victim", func(p *Proc) {
		p.Sleep(1000)
		reached = true
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(10)
		k.Kill(victim)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("victim ran past its kill point")
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	count := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			s.Wait(p)
			count++
		})
	}
	k.Spawn("fire", func(p *Proc) {
		p.Sleep(10)
		s.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		k.Spawn("task", func(p *Proc) {
			p.Sleep(Duration(i * 100))
			wg.Done()
		})
	}
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 300 {
		t.Fatalf("waiter released at %d, want 300", doneAt)
	}
}

func TestRunUntilResumable(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(100)
			ticks++
		}
	})
	if err := k.RunUntil(450); err != nil {
		t.Fatal(err)
	}
	if ticks != 4 {
		t.Fatalf("ticks = %d at deadline 450, want 4", ticks)
	}
	if k.Now() != 450 {
		t.Fatalf("now = %d, want 450", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d after full run, want 10", ticks)
	}
}

func TestInterruptibleSleep(t *testing.T) {
	k := NewKernel()
	var interrupted bool
	var wakeAt Time
	sleeper := k.Spawn("sleeper", func(p *Proc) {
		interrupted = p.SleepInterruptible(1000)
		wakeAt = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(300)
		k.Interrupt(sleeper)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !interrupted {
		t.Fatal("sleep not reported interrupted")
	}
	if wakeAt != 300 {
		t.Fatalf("woke at %d, want 300", wakeAt)
	}
}

func TestPSEngineSingleJobRunsAtFullSpeed(t *testing.T) {
	k := NewKernel()
	e := NewPSEngine(k, "gpu", 46)
	var took Duration
	k.Spawn("job", func(p *Proc) {
		start := p.Now()
		e.Run(p, 20, 1000)
		took = Duration(p.Now() - start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if took != 1000 {
		t.Fatalf("took %d, want 1000", took)
	}
}

func TestPSEngineParallelWithinCapacity(t *testing.T) {
	k := NewKernel()
	e := NewPSEngine(k, "gpu", 46)
	var end Time
	wg := NewWaitGroup(k)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		k.Spawn("job", func(p *Proc) {
			e.Run(p, 20, 1000) // 2*20 <= 46: no slowdown
			wg.Done()
		})
	}
	k.Spawn("wait", func(p *Proc) {
		wg.Wait(p)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 1000 {
		t.Fatalf("end = %d, want 1000 (full parallelism)", end)
	}
}

func TestPSEngineOversubscriptionSlowdown(t *testing.T) {
	k := NewKernel()
	e := NewPSEngine(k, "gpu", 40)
	var end Time
	wg := NewWaitGroup(k)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		k.Spawn("job", func(p *Proc) {
			e.Run(p, 20, 1000) // 4*20 = 80 > 40: factor 0.5
			wg.Done()
		})
	}
	k.Spawn("wait", func(p *Proc) {
		wg.Wait(p)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end < 1990 || end > 2010 {
		t.Fatalf("end = %d, want ~2000 (2x slowdown)", end)
	}
}

func TestPSEngineStaggeredArrival(t *testing.T) {
	k := NewKernel()
	e := NewPSEngine(k, "gpu", 10)
	var firstEnd, secondEnd Time
	k.Spawn("first", func(p *Proc) {
		e.Run(p, 10, 1000)
		firstEnd = p.Now()
	})
	k.Spawn("second", func(p *Proc) {
		p.Sleep(500)
		e.Run(p, 10, 1000)
		secondEnd = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// First runs alone 0-500 (500 work done), then shares at 0.5x.
	// Remaining 500 work takes 1000: first ends at 1500.
	if firstEnd < 1495 || firstEnd > 1505 {
		t.Fatalf("first end = %d, want ~1500", firstEnd)
	}
	// Second: 500 done by 1500 (rate 0.5), then alone: 500 more by 2000.
	if secondEnd < 1995 || secondEnd > 2005 {
		t.Fatalf("second end = %d, want ~2000", secondEnd)
	}
}

func TestPSEngineKilledJobLeavesEngine(t *testing.T) {
	k := NewKernel()
	e := NewPSEngine(k, "gpu", 10)
	var survivorEnd Time
	victim := k.Spawn("victim", func(p *Proc) {
		e.Run(p, 10, 1_000_000)
	})
	k.Spawn("survivor", func(p *Proc) {
		e.Run(p, 10, 1000)
		survivorEnd = p.Now()
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(200)
		k.Kill(victim)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Shared 0-200 (100 units done), alone afterwards: 900 more by 1100.
	if survivorEnd < 1095 || survivorEnd > 1105 {
		t.Fatalf("survivor end = %d, want ~1100", survivorEnd)
	}
	if len(e.jobs) != 0 {
		t.Fatalf("engine still has %d active jobs", len(e.jobs))
	}
}

// Property: total virtual time for n equal jobs with total demand exceeding
// capacity scales like n*demand/capacity, conservation of work.
func TestPSEngineWorkConservationProperty(t *testing.T) {
	f := func(nJobs uint8, demandSeed uint8) bool {
		n := int(nJobs%6) + 1
		demand := float64(demandSeed%30) + 10 // 10..39
		cap := 40.0
		k := NewKernel()
		e := NewPSEngine(k, "gpu", cap)
		work := Duration(10_000)
		var end Time
		wg := NewWaitGroup(k)
		for i := 0; i < n; i++ {
			wg.Add(1)
			k.Spawn("job", func(p *Proc) {
				e.Run(p, demand, work)
				wg.Done()
			})
		}
		k.Spawn("wait", func(p *Proc) {
			wg.Wait(p)
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			return false
		}
		total := demand * float64(n)
		expect := float64(work)
		if total > cap {
			expect = float64(work) * total / cap
		}
		got := float64(end)
		return got > expect*0.999 && got < expect*1.001+float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelHelpers(t *testing.T) {
	c := DefaultCosts()
	if c.Memcpy(8000) != Duration(1000) {
		t.Fatalf("memcpy(8000) = %v", c.Memcpy(8000))
	}
	if c.DMA(0) != c.PCIeLatency {
		t.Fatalf("DMA(0) = %v", c.DMA(0))
	}
	if c.SyncRPCSwitch() != 4*c.ContextSwitchS2 {
		t.Fatalf("sync RPC switch = %v", c.SyncRPCSwitch())
	}
	if c.Encrypt(1000) <= c.AESFixed {
		t.Fatal("encrypt must include per-byte cost")
	}
	if c.MOSRestart >= c.MachineReboot/100 {
		t.Fatal("mOS restart must be orders of magnitude cheaper than reboot")
	}
}

func TestShutdownUnwindsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		k := NewKernel()
		mb := NewMailbox[int](k, "never")
		k.Spawn("main", func(p *Proc) {
			k.Stop()
		})
		k.Spawn("poller", func(p *Proc) {
			for {
				p.Sleep(100)
			}
		})
		k.Spawn("parked", func(p *Proc) {
			mb.Recv(p)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
	}
	// Give the runtime a moment to reap exiting goroutines.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+3; i++ {
		runtime.Gosched()
	}
	after := runtime.NumGoroutine()
	if after > before+3 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

func TestShutdownUnwindsBlockingDefers(t *testing.T) {
	// A process whose deferred cleanup itself blocks (like closing a
	// stream) must still terminate under Shutdown.
	before := runtime.NumGoroutine()
	k := NewKernel()
	mb := NewMailbox[int](k, "mb")
	cleanupRan := false
	k.Spawn("main", func(p *Proc) {
		p.Sleep(100) // let the worker park first
		k.Stop()
	})
	k.Spawn("worker", func(p *Proc) {
		defer func() {
			cleanupRan = true
			defer func() { recover() }() // the blocking op re-panics killToken
			mb.Recv(p)                   // blocks inside the defer
			t.Error("blocking defer returned normally")
		}()
		mb.Recv(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	for i := 0; i < 100 && runtime.NumGoroutine() > before+1; i++ {
		runtime.Gosched()
	}
	if !cleanupRan {
		t.Fatal("deferred cleanup never ran")
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, g)
	}
}

// TestAtShutdownRunsAfterTheLastUnwind: the AtShutdown functions run once,
// in registration order, after every process's deferred calls, and add no
// event: the clock and the dispatch count are what Run left.
func TestAtShutdownRunsAfterTheLastUnwind(t *testing.T) {
	var order []string
	err := Run(func(p *Proc) error {
		k := p.Kernel()
		k.AtShutdown(func() { order = append(order, "first") })
		k.Spawn("parked", func(p *Proc) {
			defer func() { order = append(order, "unwound") }()
			NewCond(p.Kernel()).Wait(p)
		})
		p.Sleep(Microsecond)
		now, dispatched := k.Now(), k.Dispatched()
		k.AtShutdown(func() {
			order = append(order, "second")
			if k.Now() != now || k.Dispatched() != dispatched {
				t.Errorf("shutdown moved the kernel to %v / %d events from %v / %d", k.Now(), k.Dispatched(), now, dispatched)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "unwound first second" {
		t.Errorf("shutdown order %q, want \"unwound first second\"", got)
	}
}

// TestShutdownLeavesNoGoroutines holds Shutdown to the exact goroutine count
// it started from, for a process in every state a run can leave behind: never
// started (its coroutine exists but has not been resumed), parked, asleep,
// killed while parked with the unwinding wake still queued, and one whose
// deferred cleanup swallows the kill and blocks again mid-unwind. The
// lifecycle rows hold Run (the package function) to the same count however
// its body ends.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	// quietBase reads the goroutine count once it has held still for 20 ms, so
	// a goroutine an earlier test left exiting is not counted against this one.
	quietBase := func() int {
		base := runtime.NumGoroutine()
		for quiet := 0; quiet < 20; quiet++ {
			time.Sleep(time.Millisecond)
			if g := runtime.NumGoroutine(); g != base {
				base, quiet = g, 0
			}
		}
		return base
	}
	base := quietBase()
	k := NewKernel()
	never := NewCond(k)
	cleanups := 0
	cleanup := func() { cleanups++ }
	k.Spawn("parked", func(p *Proc) {
		defer cleanup()
		never.Wait(p)
	})
	k.Spawn("sleeping", func(p *Proc) {
		defer cleanup()
		p.Sleep(Second)
	})
	victim := k.Spawn("killed-while-parked", func(p *Proc) {
		defer cleanup()
		never.Wait(p)
	})
	k.Spawn("mid-unwind", func(p *Proc) {
		defer func() {
			recover() // swallow the kill ...
			defer cleanup()
			p.Sleep(1) // ... and block again: must unwind, not suspend
			t.Error("a killed process slept")
		}()
		never.Wait(p)
	})
	// The killer's child and the victim's wake stay queued behind Stop.
	k.Spawn("killer", func(p *Proc) {
		defer cleanup()
		p.Sleep(100 * Microsecond)
		k.Kill(victim)
		k.Spawn("never-started", func(*Proc) { t.Error("a never-started process ran") })
		k.Stop()
		p.Sleep(Second)
	})
	if g := runtime.NumGoroutine(); g != base+len(k.procs) {
		t.Fatalf("%d goroutines for %d processes over a baseline of %d", g, len(k.procs), base)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cleanups != 0 {
		t.Fatalf("%d processes unwound before Shutdown", cleanups)
	}
	k.Shutdown()
	if live := len(k.procs); live != 0 {
		t.Errorf("%d processes alive after Shutdown", live)
	}
	if cleanups != 5 {
		t.Errorf("%d deferred cleanups ran, want 5", cleanups)
	}
	if g := runtime.NumGoroutine(); g != base {
		t.Errorf("%d goroutines after Shutdown, %d before the kernel existed", g, base)
	}

	// Every lifecycle row leaves a parked and a sleeping service loop behind
	// its body, each with a deferred cleanup that must run.
	errBody := errors.New("body failed")
	rows := []struct {
		name string
		body func(p *Proc) error
		want func(err error) bool
	}{
		{"clean body", func(*Proc) error { return nil },
			func(err error) bool { return err == nil }},
		{"body error", func(*Proc) error { return errBody },
			func(err error) bool { return errors.Is(err, errBody) }},
		{"process panic", func(p *Proc) error {
			p.Kernel().Spawn("panicker", func(*Proc) { panic("boom") })
			p.Sleep(Second)
			return errBody
		}, func(err error) bool {
			var pe *PanicError
			return errors.As(err, &pe) && pe.Proc == "panicker"
		}},
		{"deadlock", func(p *Proc) error {
			NewCond(p.Kernel()).Wait(p)
			return errBody
		}, func(err error) bool {
			var de *DeadlockError
			return errors.As(err, &de)
		}},
	}
	for _, row := range rows {
		base := quietBase()
		cleanups = 0
		err := Run(func(p *Proc) error {
			never := NewCond(p.Kernel())
			p.Kernel().Spawn("parked", func(q *Proc) {
				defer func() { cleanups++ }()
				never.Wait(q)
			})
			p.Kernel().Spawn("sleeping", func(q *Proc) {
				defer func() { cleanups++ }()
				q.Sleep(Second)
			})
			p.Sleep(Microsecond)
			return row.body(p)
		})
		if !row.want(err) {
			t.Errorf("%s: Run returned %v", row.name, err)
		}
		if cleanups != 2 {
			t.Errorf("%s: %d service loops unwound, want 2", row.name, cleanups)
		}
		if g := runtime.NumGoroutine(); g != base {
			t.Errorf("%s: %d goroutines after Run, %d before", row.name, g, base)
		}
	}
}

// TestGoexitInProcessEndsRun: runtime.Goexit (which is what t.Fatal calls)
// inside a process travels through the coroutine to the goroutine that called
// Run and ends it there, deferred calls included — it neither hangs the
// kernel nor lets Run return as if the process had finished.
func TestGoexitInProcessEndsRun(t *testing.T) {
	k := NewKernel()
	quitter := k.Spawn("quitter", func(p *Proc) {
		p.Sleep(5)
		runtime.Goexit()
	})
	k.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a process called Goexit")
	}
	if !quitter.Dead() {
		t.Fatal("the exited process is not marked dead")
	}
	k.Shutdown()
}

// TestPortOrdering pins the delivery order: same-instant messages apply in
// send order, and before the timers and wakes of their arrival instant.
func TestPortOrdering(t *testing.T) {
	k := NewKernel()
	pt := NewPort[string](k, 0, "in", Microsecond)
	var log []string
	for i := 0; i < 2; i++ {
		k.Spawn(fmt.Sprintf("sender-%d", i), func(p *Proc) {
			p.Sleep(10 * Microsecond)
			pt.Send(p, p.Name())
		})
	}
	k.Spawn("timer", func(p *Proc) {
		// Queued at 0, long before either send: band 0 still goes first.
		p.CallAt(Time(11*Microsecond), func() {
			log = append(log, fmt.Sprintf("timer sees %d queued", pt.q.Len()))
		})
	})
	k.Spawn("recv", func(p *Proc) {
		a, b := pt.Recv(p), pt.Recv(p)
		log = append(log, fmt.Sprintf("%s then %s at %v", a, b, p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	want := "timer sees 2 queued; sender-0 then sender-1 at 11.00us"
	if got := strings.Join(log, "; "); got != want {
		t.Fatalf("delivery order: got %q want %q", got, want)
	}
}

// TestCallAt covers the kernel-context timer: ordering against process
// events and chained re-arming.
func TestCallAt(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.Spawn("driver", func(p *Proc) {
		var tick func()
		n := 0
		tick = func() {
			fired = append(fired, p.Now())
			n++
			if n < 3 {
				p.CallAt(p.Now()+Time(10*Microsecond), tick)
			}
		}
		p.CallAt(p.Now()+Time(10*Microsecond), tick)
		p.Sleep(Duration(100 * Microsecond))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(fired) != 3 {
		t.Fatalf("expected 3 chained firings, got %d", len(fired))
	}
}
