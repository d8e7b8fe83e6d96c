package sim

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// The dispatch-order fingerprint: a scenario that mixes every way an event
// gets scheduled or cancelled, reduced to a hash of the (t, band, a, b) keys
// the kernel dispatched. The constants were captured on the coordinator-loop
// kernel that predates baton dispatch (commit 3c5454e, with the same probe
// patched in); the kernel may change how it dispatches, never what or when.
const (
	fpUnsharded  = 0xaa372face560ad3b
	fpSequential = 0x90e7b81ec6b8cb9b
	fpParallel   = 0xe4c7cd9fb668b56b
)

type fpKey struct {
	t    Time
	band uint8
	a, b uint64
}

func (x fpKey) less(y fpKey) bool {
	switch {
	case x.t != y.t:
		return x.t < y.t
	case x.band != y.band:
		return x.band < y.band
	case x.a != y.a:
		return x.a < y.a
	}
	return x.b < y.b
}

// fingerprintScenario runs the scenario and returns the hash of its dispatched
// keys plus the virtual instant the run ended at. shards == 0 is the unsharded
// kernel. Keys dispatched under the sequential merge hash in dispatch order;
// those of the parallel phase, where shards run concurrently, in key order.
func fingerprintScenario(t *testing.T, shards int, parallel bool) (uint64, Time) {
	t.Helper()
	const (
		us     = Microsecond
		eps    = 5 * us
		groups = 4
		jobs   = 12
	)
	k := NewKernel()
	place := func(g int) int { return 0 }
	if shards > 0 {
		k.EnableSharding(shards, eps)
		place = func(g int) int { return g % shards }
	}
	var seq []fpKey
	par := make([][]fpKey, k.NumShards())
	k.probe = func(shard int, at Time, band uint8, a, b uint64) {
		if k.parallel {
			par[shard] = append(par[shard], fpKey{at, band, a, b})
		} else {
			seq = append(seq, fpKey{at, band, a, b})
		}
	}

	done := NewPort[int](k, 0, "done", eps)
	fin := NewPort[int](k, 0, "fin", eps)
	in := make([]*Port[int], groups)
	workers := make([]*Proc, groups)
	for g := 0; g < groups; g++ {
		g := g
		sh := place(g)
		in[g] = NewPort[int](k, sh, fmt.Sprintf("in-%d", g), eps)
		res := NewResource(k, "engine", 1)
		cond := NewCond(k)
		mb := NewMailbox[int](k, "mb")
		never := NewMailbox[int](k, "never")

		workers[g] = k.SpawnOn(sh, uint64(100+g), fmt.Sprintf("worker-%d", g), func(p *Proc) {
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
		parked := k.SpawnOn(sh, uint64(300+g), "victim-parked", func(p *Proc) { never.Recv(p) })
		queued := k.SpawnOn(sh, uint64(400+g), "victim-queued", func(p *Proc) { p.Sleep(Second) })
		k.SpawnOn(sh, uint64(500+g), "victim-self", func(p *Proc) {
			p.Sleep(Duration(3*(g+1)) * us)
			mb.Send(g)
			k.Kill(p)
		})
		k.SpawnOn(sh, uint64(200+g), fmt.Sprintf("poker-%d", g), func(p *Proc) {
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
			// A child forked mid-phase contends for the engine and waits on
			// the cond; the parent releases it and collects its answer.
			p.Spawn("child", func(q *Proc) {
				res.Use(q, 1, 3*us)
				cond.Wait(q)
				mb.Send(100 + g)
			})
			for {
				p.Sleep(11 * us)
				cond.Broadcast()
				if _, ok := mb.TryRecv(); ok {
					break
				}
			}
			p.Sleep(80 * us) // outlast the timer chain
			fin.Send(p, g)
		})
	}

	var straggler *Proc
	k.SpawnOn(0, 1, "host", func(p *Proc) {
		if parallel {
			k.Parallelize()
			p.Sleep(0)
		}
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
		// Every other process is parked or dead by now, so the switch back
		// cuts no shard's window short at a host-dependent point.
		p.Sleep(100 * us)
		p.Sequentialize()
		straggler = k.SpawnOn(place(1), 2, "straggler", func(q *Proc) {
			for {
				q.Sleep(6 * us)
			}
		})
		k.SpawnOn(place(2), 3, "late", func(q *Proc) { q.Sleep(40 * us) })
		for g := range in {
			in[g].Send(p, -1)
		}
		p.Sleep(20 * us)
		k.Kill(straggler) // cross-shard kill of a queued process
		p.Sleep(5 * us)
		k.Stop() // "late" is still queued
	})

	// Two deadline cuts, one mid-burst and one in the quiet tail, then the rest.
	for _, d := range []Time{Time(25 * us), Time(26 * us), Time(140 * us)} {
		if err := k.RunUntil(d); err != nil {
			t.Fatalf("shards=%d parallel=%v: RunUntil(%v): %v", shards, parallel, d, err)
		}
		if now := k.nowSeq; now != d {
			t.Fatalf("shards=%d parallel=%v: clock %v after RunUntil(%v)", shards, parallel, now, d)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("shards=%d parallel=%v: %v", shards, parallel, err)
	}
	end := k.nowSeq
	k.Shutdown()

	var merged []fpKey
	for _, keys := range par {
		merged = append(merged, keys...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].less(merged[j]) })
	h := fnv.New64a()
	for _, key := range append(seq, merged...) {
		fmt.Fprintf(h, "%d/%d/%d/%d;", key.t, key.band, key.a, key.b)
	}
	return h.Sum64(), end
}

func TestDispatchOrderFingerprint(t *testing.T) {
	for _, c := range []struct {
		shards   int
		parallel bool
		want     uint64
	}{
		{0, false, fpUnsharded},
		{1, false, fpSequential},
		{4, false, fpSequential},
		{1, true, fpParallel},
		{4, true, fpParallel},
	} {
		got, end := fingerprintScenario(t, c.shards, c.parallel)
		if got != c.want {
			t.Errorf("shards=%d parallel=%v: fingerprint %#x, want %#x (end %v)", c.shards, c.parallel, got, c.want, end)
		}
	}
}
