package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// The dispatch-order fingerprint: a scenario that mixes every way an event
// gets scheduled or cancelled, reduced to a hash of the keys the kernel
// dispatched. The constant was captured on the coordinator-loop kernel that
// predates baton dispatch (commit 3c5454e, with the same probe patched in),
// whose keys had a fourth, always-zero component between band and sequence;
// the hash still writes that 0, so the bytes hashed are the ones it hashed.
// The kernel may change how it dispatches, never what or when.
const fpUnsharded uint64 = 0xaa372face560ad3b

// fingerprintScenario runs the scenario and returns the hash of its dispatched
// keys plus the virtual instant the run ended at.
func fingerprintScenario(t *testing.T) (uint64, Time) {
	t.Helper()
	const (
		us     = Microsecond
		hop    = 5 * us
		groups = 4
		jobs   = 12
	)
	k := NewKernel()
	h := fnv.New64a()
	k.probe = func(at Time, band uint8, seq uint64) {
		fmt.Fprintf(h, "%d/%d/0/%d;", at, band, seq)
	}

	done := NewPort[int](k, 0, "done", hop)
	fin := NewPort[int](k, 0, "fin", hop)
	in := make([]*Port[int], groups)
	workers := make([]*Proc, groups)
	for g := 0; g < groups; g++ {
		g := g
		in[g] = NewPort[int](k, 0, fmt.Sprintf("in-%d", g), hop)
		res := NewResource(k, "engine", 1)
		cond := NewCond(k)
		mb := NewMailbox[int](k, "mb")
		never := NewMailbox[int](k, "never")

		workers[g] = k.Spawn(fmt.Sprintf("worker-%d", g), func(p *Proc) {
			for {
				job := in[g].Recv(p)
				if job < 0 {
					return
				}
				res.Use(p, 1, Duration(2+job%5)*us)
				p.SleepInterruptible(Duration(9+3*g) * us)
				done.Send(p, job)
			}
		})
		parked := k.Spawn("victim-parked", func(p *Proc) { never.Recv(p) })
		queued := k.Spawn("victim-queued", func(p *Proc) { p.Sleep(Second) })
		k.Spawn("victim-self", func(p *Proc) {
			p.Sleep(Duration(3*(g+1)) * us)
			mb.Send(g)
			k.Kill(p)
		})
		k.Spawn(fmt.Sprintf("poker-%d", g), func(p *Proc) {
			// A chained timer that keeps interrupting the worker, whatever
			// it is blocked in at the time.
			ticks := 0
			var tick func()
			tick = func() {
				k.Interrupt(workers[g])
				if ticks++; ticks < 8 {
					p.CallAt(p.Now()+Time(7*us), tick)
				}
			}
			p.CallAt(p.Now()+Time(4*us), tick)
			mb.Recv(p)
			p.Sleep(2 * us)
			k.Kill(parked)
			p.Sleep(us)
			k.Kill(queued)
			// A child forked mid-run contends for the engine and waits on
			// the cond; the parent releases it and collects its answer.
			k.Spawn("child", func(q *Proc) {
				res.Use(q, 1, 3*us)
				cond.Wait(q)
				mb.Send(100 + g)
			})
			for {
				p.Sleep(11 * us)
				cond.Broadcast()
				if mb.items.Len() > 0 {
					mb.items.Pop()
					break
				}
			}
			p.Sleep(80 * us) // outlast the timer chain
			fin.Send(p, g)
		})
	}

	k.Spawn("host", func(p *Proc) {
		for j := 0; j < jobs; j++ {
			in[j%groups].Send(p, j)
			p.Sleep(Duration(j%4) * us)
		}
		for n := 0; n < jobs; n++ {
			done.Recv(p)
		}
		for g := 0; g < groups; g++ {
			fin.Recv(p)
		}
		p.Sleep(100 * us)
		straggler := k.Spawn("straggler", func(q *Proc) {
			for {
				q.Sleep(6 * us)
			}
		})
		k.Spawn("late", func(q *Proc) { q.Sleep(40 * us) })
		for g := range in {
			in[g].Send(p, -1)
		}
		p.Sleep(20 * us)
		k.Kill(straggler) // kill of a queued process
		p.Sleep(5 * us)
		k.Stop() // "late" is still queued
	})

	// Two deadline cuts, one mid-burst and one in the quiet tail, then the rest.
	for _, d := range []Time{Time(25 * us), Time(26 * us), Time(140 * us)} {
		if err := k.RunUntil(d); err != nil {
			t.Fatalf("RunUntil(%v): %v", d, err)
		}
		if now := k.Now(); now != d {
			t.Fatalf("clock %v after RunUntil(%v)", now, d)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	end := k.Now()
	k.Shutdown()
	return h.Sum64(), end
}

func TestDispatchOrderFingerprint(t *testing.T) {
	if got, end := fingerprintScenario(t); got != fpUnsharded {
		t.Errorf("fingerprint %#x, want %#x (end %v)", got, fpUnsharded, end)
	}
}
