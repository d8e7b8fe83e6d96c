package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// TestEventQueueMatchesSortOracle drives the two-tier queue with random pushes
// and pops over keys that collide on t and band, and checks every pop against
// a sorted slice. The queue grows well past the front's capacity, so pops come
// from both tiers. It also pins that a vacated slot in either tier keeps
// nothing reachable — the owner, the callback or the callback's argument.
func TestEventQueueMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	owner := &Proc{}
	noop := func(any) {}
	var q eventQueue
	var oracle []event
	var seq uint64
	// Random pushes and pops, then a full drain so the deep tail is checked too.
	for step := 0; step < 4000 || len(oracle) > 0; step++ {
		if step < 4000 && (len(oracle) == 0 || rng.Intn(5) < 3) {
			seq++ // the one component that never collides, as in the kernel
			e := event{t: Time(rng.Intn(8)), gb: uint64(rng.Intn(2)), seq: seq, p: owner, fn: noop, arg: owner}
			q.push(&e)
			oracle = append(oracle, e)
			continue
		}
		sort.Slice(oracle, func(i, j int) bool { return keyLess(&oracle[i], &oracle[j]) })
		want := oracle[0]
		oracle = oracle[1:]
		if m := q.min(); m.seq != want.seq {
			t.Fatalf("step %d: min has seq %d, oracle says %d", step, m.seq, want.seq)
		}
		var got event
		q.pop(&got)
		if got.t != want.t || got.band() != want.band() || got.seq != want.seq {
			t.Fatalf("step %d: popped (%d,%d,%d), oracle says (%d,%d,%d)",
				step, got.t, got.band(), got.seq, want.t, want.band(), want.seq)
		}
		if q.len() != len(oracle) {
			t.Fatalf("step %d: queue holds %d events, oracle %d", step, q.len(), len(oracle))
		}
		if err := checkQueueTiers(&q); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if cap(q.front) != frontCap || cap(q.back) == 0 {
		t.Fatalf("the schedule did not use both tiers: front cap %d, heap cap %d", cap(q.front), cap(q.back))
	}
}

// checkQueueTiers checks the queue's layout: the front within its capacity and
// sorted descending, every front key below every heap key, and every vacated
// slot of either tier holding no process, callback or argument.
func checkQueueTiers(q *eventQueue) error {
	f, h := q.front, q.back
	if cap(f) > frontCap {
		return fmt.Errorf("front capacity %d, want at most %d", cap(f), frontCap)
	}
	for i := 1; i < len(f); i++ {
		if !keyLess(&f[i], &f[i-1]) {
			return fmt.Errorf("front slots %d and %d out of order", i-1, i)
		}
	}
	if len(f) > 0 && len(h) > 0 && !keyLess(&f[0], &h[0]) {
		return fmt.Errorf("front's largest (%d,%d,%d) is not below the heap's minimum (%d,%d,%d)",
			f[0].t, f[0].band(), f[0].seq, h[0].t, h[0].band(), h[0].seq)
	}
	for _, tier := range []struct {
		name  string
		slots []event
	}{{"front", f}, {"heap", h}} {
		s := tier.slots
		for i, slot := range s[len(s):cap(s)] {
			if slot.p != nil || slot.fn != nil || slot.arg != nil {
				return fmt.Errorf("vacated %s slot %d still holds p=%v fn set=%v arg=%v",
					tier.name, len(s)+i, slot.p, slot.fn != nil, slot.arg)
			}
		}
	}
	return nil
}

// TestEventFitsOneCacheLine pins the layout the queue's event moves rest on: an
// event with its callback argument is at most 64 bytes (generation and band
// share a word). A 72-byte event measured 36 ns per self-wake sleep against 28.
func TestEventFitsOneCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 64 {
		t.Fatalf("event is %d bytes, want <= 64", sz)
	}
	// The shared word keeps both halves apart at the largest generation 56
	// bits hold (a process that blocks every host nanosecond gets there in
	// two years).
	p := &Proc{gen: 1<<56 - 1, state: procQueued}
	ev := wakeEvent(3, p)
	if ev.band() != 1 || ev.stale() {
		t.Fatalf("wake event at generation 2^56-1: band %d, stale %v", ev.band(), ev.stale())
	}
	p.gen--
	if !ev.stale() {
		t.Fatal("a wake event from another generation is not stale")
	}
}

// TestFifoMatchesSliceOracle checks the wait-path queue against a plain slice
// under random push/pop/push-front/remove, and that a queue which keeps draining settles
// on one backing array instead of growing a new one per round trip.
func TestFifoMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q FIFO[*int]
	var oracle []*int
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(oracle) == 0:
			v := new(int)
			q.Push(v)
			oracle = append(oracle, v)
		case r < 8:
			if got := q.Pop(); got != oracle[0] {
				t.Fatalf("step %d: pop returned the wrong element", step)
			}
			oracle = oracle[1:]
		case r < 9:
			vs := make([]*int, 1+rng.Intn(3))
			for i := range vs {
				vs[i] = new(int)
			}
			q.PushFront(vs)
			oracle = append(vs, oracle...)
		default:
			i := rng.Intn(len(oracle))
			q.remove(i)
			oracle = append(oracle[:i:i], oracle[i+1:]...)
		}
		if q.Len() != len(oracle) {
			t.Fatalf("step %d: len %d, oracle %d", step, q.Len(), len(oracle))
		}
		for i, v := range q.Live() {
			if v != oracle[i] {
				t.Fatalf("step %d: element %d differs from the oracle", step, i)
			}
		}
		for i, v := range q.buf[:cap(q.buf)] {
			if live := i >= q.head && i < len(q.buf); !live && v != nil {
				t.Fatalf("step %d: dead slot %d still holds a pointer", step, i)
			}
		}
	}
	var rt FIFO[int]
	rt.Push(0)
	rt.Pop()
	base := &rt.buf[:1][0]
	for i := 0; i < 100; i++ {
		rt.Push(i)
		rt.Pop()
	}
	if &rt.buf[:1][0] != base {
		t.Fatal("a drained fifo did not reuse its backing array")
	}
}

// rekeyTimes is a Rescheduler that answers its process's first n wakes with
// one more nanosecond of sleep and then lets it resume.
type rekeyTimes struct{ n int }

func (r *rekeyTimes) Reschedule(now Time) (Time, *Cond) {
	if r.n == 0 {
		return now, nil
	}
	r.n--
	return now + 1, nil
}

// TestKernelStats checks every counter of Kernel.Stats on scenarios counted by
// hand, each on a fresh kernel:
//   - two sleepers due at the same instants hand the baton back and forth:
//     every block after the first dispatches the other one's wake;
//   - a lone sleeper's own wake is always next, and a Rescheduler answers
//     two of its wakes in the kernel;
//   - 100 timers queued nearest-last overflow the front and spill its
//     largest event 36 times, and a sleep behind them goes straight to the
//     heap.
func TestKernelStats(t *testing.T) {
	run := func(name string, want Stats, body func(k *Kernel)) {
		t.Helper()
		k := NewKernel()
		body(k)
		if err := k.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k.Shutdown()
		if got := k.Stats(); got != want {
			t.Errorf("%s: Stats() = %+v, want %+v", name, got, want)
		}
	}
	// a and b spawn at 0 and each sleep 2 ns three times. The spawns are
	// pushes 1–2, the sleeps 3–8; a runs first, and each of its and b's six
	// blocks dispatches the other's event: b's spawn, then the wakes at 2,
	// 2, 4, 4, 6. a's exit hands the baton back, and drive dispatches b's
	// last wake.
	run("alternating", Stats{Dispatched: 8, Switches: 6, Pushes: 8, QueueMax: 2}, func(k *Kernel) {
		for _, name := range []string{"a", "b"} {
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(2)
				}
			})
		}
	})
	// c's first sleep ends at 1, 2 and 3: two wakes re-keyed, then a
	// resume; two plain sleeps follow. Three blocks, each returning on its
	// own wake; six events: the spawn, three wakes of the first sleep, one
	// of each other.
	run("lone", Stats{Dispatched: 6, Rekeyed: 2, Inline: 3, Pushes: 6, QueueMax: 1}, func(k *Kernel) {
		k.Spawn("c", func(p *Proc) {
			p.SetRescheduler(&rekeyTimes{n: 2})
			p.Sleep(1)
			p.SetRescheduler(nil)
			p.Sleep(1)
			p.Sleep(1)
		})
	})
	// The spawn, then timers at 100 down to 1: the first 64 fill the front,
	// each later one is its new minimum and spills its largest into the
	// heap (36). The sleep to 1000 lies behind the heap's minimum (65):
	// the 37th heap push, at 101 pending events. The block dispatches all
	// 100 timers inline, then its own wake.
	run("deep", Stats{Dispatched: 102, Inline: 1, Pushes: 102, HeapPushes: 37, QueueMax: 101}, func(k *Kernel) {
		k.Spawn("main", func(p *Proc) {
			fired := 0
			tick := func(any) { fired++ }
			for at := Time(100); at >= 1; at-- {
				p.CallAtArg(at, tick, nil)
			}
			p.Sleep(1000)
			if fired != 100 {
				t.Errorf("deep: %d timers fired, want 100", fired)
			}
		})
	})
}

// TestBeforeEventRunsBeforeTheNthEvent pins the fault-injection hook: armed
// at n, fn runs once, at the instant of the n-th dispatched event and before
// it runs — with n-1 events counted — and arming changes nothing else about
// the run.
func TestBeforeEventRunsBeforeTheNthEvent(t *testing.T) {
	type rec struct {
		at   Time
		keys int
	}
	run := func(n uint64, fn func(k *Kernel, log *[]string)) ([]string, []Time) {
		k := NewKernel()
		var log []string
		var times []Time
		k.probe = func(at Time, _ uint8, _ uint64) { times = append(times, at) }
		for i := 0; i < 3; i++ {
			i := i
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(Duration(3 + i))
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
			})
		}
		if fn != nil {
			k.BeforeEvent(n, func() { fn(k, &log) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if k.Dispatched() != uint64(len(times)) {
			t.Fatalf("Dispatched() = %d after %d probed events", k.Dispatched(), len(times))
		}
		return log, times
	}
	clean, times := run(0, nil)
	for _, n := range []uint64{1, 5, uint64(len(times))} {
		var got []rec
		log, _ := run(n, func(k *Kernel, log *[]string) {
			got = append(got, rec{k.Now(), int(k.Dispatched())})
			*log = append(*log, "hook")
		})
		if len(got) != 1 {
			t.Fatalf("n=%d: the hook ran %d times, want once", n, len(got))
		}
		if got[0].keys != int(n)-1 || got[0].at != times[n-1] {
			t.Errorf("n=%d: the hook ran at %v with %d events dispatched, want %v and %d", n, got[0].at, got[0].keys, times[n-1], n-1)
		}
		var rest []string
		for _, l := range log {
			if l != "hook" {
				rest = append(rest, l)
			}
		}
		if strings.Join(rest, " ") != strings.Join(clean, " ") {
			t.Errorf("n=%d: arming changed the run:\n%v\nwant\n%v", n, rest, clean)
		}
	}
	k := NewKernel()
	ran := false
	k.Spawn("p", func(p *Proc) { p.Sleep(1) })
	k.BeforeEvent(1, func() { ran = true })
	k.BeforeEvent(0, nil)
	if err := k.Run(); err != nil || ran {
		t.Errorf("a disarmed hook ran (%v, err %v)", ran, err)
	}
}

// TestHotPathsDoNotAllocate pins the zero-allocation budget of the dispatch
// core and the wait paths: each scenario is warmed up, then a thousand virtual
// nanoseconds of it (a thousand or more events) must allocate nothing at all.
func TestHotPathsDoNotAllocate(t *testing.T) {
	scenarios := map[string]func(k *Kernel){
		"self-wake sleep": func(k *Kernel) {
			k.Spawn("sleeper", func(p *Proc) {
				for {
					p.Sleep(1)
				}
			})
		},
		"cross-process switch": func(k *Kernel) {
			for i := 0; i < 2; i++ {
				k.Spawn("sleeper", func(p *Proc) {
					for {
						p.Sleep(1)
					}
				})
			}
		},
		// Four sleepers a nanosecond apart: every event finds a process other
		// than the blocker due, so each is a yield to drive and a resume of
		// the next coroutine — the proc→proc hand-off and nothing else.
		"proc→proc hand-off ring": func(k *Kernel) {
			for i := 0; i < 4; i++ {
				i := i
				k.Spawn("runner", func(p *Proc) {
					p.Sleep(Duration(i))
					for {
						p.Sleep(4)
					}
				})
			}
		},
		"CallAt with a pre-built fn": func(k *Kernel) {
			k.Spawn("timer", func(p *Proc) {
				var tick func()
				tick = func() { p.CallAt(p.Now()+1, tick) }
				tick()
				p.Sleep(Second)
			})
		},
		// The argument-carrying forms: one callback bound at set-up, the
		// occurrence's state (a pointer) riding in the event.
		"CallAtArg with a bound fn": func(k *Kernel) {
			k.Spawn("timer", func(p *Proc) {
				type tick struct{ n int }
				var fire func(any)
				fire = func(a any) {
					a.(*tick).n++
					p.CallAtArg(p.Now()+1, fire, a)
				}
				fire(&tick{})
				p.Sleep(Second)
			})
		},
		"Port send of a pointer": func(k *Kernel) {
			type msg struct{ hops int }
			pt := NewPort[*msg](k, 0, "loop", 1)
			k.Spawn("sender", func(p *Proc) {
				pt.SetHandler(func(_ Time, m *msg) {
					m.hops++
					pt.Send(p, m)
				})
				pt.Send(p, &msg{})
				p.Sleep(Second)
			})
		},
		"park and wake": func(k *Kernel) {
			c := NewCond(k)
			k.Spawn("waiter", func(p *Proc) {
				for {
					c.Wait(p)
				}
			})
			k.Spawn("waker", func(p *Proc) {
				for {
					p.Sleep(1)
					c.Broadcast()
				}
			})
		},
		"mailbox round trip": func(k *Kernel) {
			req, rsp := NewMailbox[int](k, "req"), NewMailbox[int](k, "rsp")
			k.Spawn("server", func(p *Proc) {
				for {
					v, _ := req.Recv(p)
					rsp.Send(v)
				}
			})
			k.Spawn("client", func(p *Proc) {
				for i := 0; ; i++ {
					req.Send(i)
					rsp.Recv(p)
					p.Sleep(1)
				}
			})
		},
		"resource hand-over": func(k *Kernel) {
			r := NewResource(k, "engine", 1)
			for i := 0; i < 3; i++ {
				k.Spawn("user", func(p *Proc) {
					for {
						r.Use(p, 1, 1)
					}
				})
			}
		},
		// Three jobs oversubscribing a processor-sharing engine: every start
		// and finish re-projects the others, and a finished job's record is
		// the next run's.
		"PSEngine run": func(k *Kernel) {
			e := NewPSEngine(k, "sms", 4)
			for i := 0; i < 3; i++ {
				i := i
				k.Spawn("job", func(p *Proc) {
					for {
						e.Run(p, float64(2+i), Duration(3+i))
					}
				})
			}
		},
	}
	for name, setup := range scenarios {
		k := NewKernel()
		setup(k)
		step := func() {
			if err := k.RunUntil(k.Now() + 1000); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		step() // grow the heap and the wait queues to their working size
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Errorf("%s: %.1f allocs per 1000 virtual ns, want 0", name, allocs)
		}
		k.Shutdown()
	}
}

// TestCallbackPanicSparesBatonHolder: a callback that panics while a blocked
// process is the one dispatching must surface from Run as a *PanicError naming
// the process that scheduled it — and must not unwind the dispatching process,
// which did nothing wrong.
func TestCallbackPanicSparesBatonHolder(t *testing.T) {
	k := NewKernel()
	var stack string
	unwound := false
	k.Spawn("culprit", func(p *Proc) {
		p.CallAt(50, func() {
			stack = string(debug.Stack())
			panic("boom")
		})
		p.Sleep(200) // hands the baton to holder, which is due first
	})
	holder := k.Spawn("holder", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(100)
		t.Error("holder ran past the failed run")
	})
	err := k.Run()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Proc != "culprit" || pe.Value != "boom" {
		t.Fatalf("Run returned %v, want a PanicError{culprit, boom}", err)
	}
	if !strings.Contains(stack, "(*Proc).Sleep") {
		t.Fatalf("the callback did not run on the blocked process's goroutine:\n%s", stack)
	}
	if unwound || holder.Dead() {
		t.Fatal("the panic unwound the process that held the baton")
	}
	if k.Now() != 50 {
		t.Fatalf("run ended at %v, want the instant of the callback (50ns)", k.Now())
	}
	k.Shutdown()
	if !unwound {
		t.Fatal("Shutdown did not unwind the holder")
	}
}

// TestArgCallbackPanicNamesScheduler: the argument-carrying forms fail the
// same way CallAt does — Run returns a *PanicError naming the process that
// scheduled the callback (for a port delivery, the sender).
func TestArgCallbackPanicNamesScheduler(t *testing.T) {
	arm := map[string]func(k *Kernel, p *Proc){
		"CallAtArg": func(k *Kernel, p *Proc) {
			p.CallAtArg(50, func(v any) { panic(v) }, "boom")
		},
		"Port handler": func(k *Kernel, p *Proc) {
			pt := NewPort[string](k, 0, "in", 50)
			pt.SetHandler(func(_ Time, v string) { panic(v) })
			pt.Send(p, "boom")
		},
	}
	for name, schedule := range arm {
		k := NewKernel()
		k.Spawn("culprit", func(p *Proc) {
			schedule(k, p)
			p.Sleep(200)
		})
		k.Spawn("holder", func(p *Proc) { p.Sleep(100) })
		err := k.Run()
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Proc != "culprit" || pe.Value != "boom" {
			t.Errorf("%s: Run returned %v, want a PanicError{culprit, boom}", name, err)
		}
		k.Shutdown()
	}
}
