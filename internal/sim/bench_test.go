package sim

import (
	"fmt"
	"testing"
)

// BenchmarkKernelContextSwitch measures one simulated process switch (sleep
// + resume round trip) — the simulation's own overhead floor.
func BenchmarkKernelContextSwitch(b *testing.B) {
	k := NewKernel()
	k.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelProcSwitch measures one event that hands control to another
// process: two sleepers due alternately, so no wake is ever the blocker's own.
func BenchmarkKernelProcSwitch(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 2; i++ {
		k.Spawn("switcher", func(p *Proc) {
			for n := 0; n < b.N/2+1; n++ {
				p.Sleep(2)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelSpawnExit measures the life of a process that does nothing:
// spawn, first dispatch, exit. Creating the coroutine is where iter.Pull costs
// more allocations than the goroutine + channel it replaced (its closures and
// shared state), which is what this keeps on the books; steady-state serving
// spawns nothing per request.
func BenchmarkKernelSpawnExit(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Spawn("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Spawn("child", func(*Proc) {})
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelCallAt measures one callback event: a timer that re-arms
// itself with a pre-built fn, no process involved.
func BenchmarkKernelCallAt(b *testing.B) {
	k := NewKernel()
	k.Spawn("timer", func(p *Proc) {
		n := 0
		var tick func()
		tick = func() {
			if n++; n < b.N {
				p.CallAt(p.Now()+1, tick)
			}
		}
		tick()
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMailboxRoundTrip measures one send + blocking receive handoff
// between two simulated processes.
func BenchmarkMailboxRoundTrip(b *testing.B) {
	k := NewKernel()
	req := NewMailbox[int](k, "req")
	rsp := NewMailbox[int](k, "rsp")
	k.Spawn("server", func(p *Proc) {
		for {
			v, ok := req.Recv(p)
			if !ok {
				return
			}
			rsp.Send(v)
		}
	})
	k.Spawn("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			req.Send(i)
			rsp.Recv(p)
		}
		req.Close()
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPSEngineChurn measures job arrival/departure with reprojection
// across four concurrent tenants.
func BenchmarkPSEngineChurn(b *testing.B) {
	k := NewKernel()
	e := NewPSEngine(k, "gpu", 46)
	for t := 0; t < 4; t++ {
		k.Spawn("tenant", func(p *Proc) {
			for i := 0; i < b.N/4+1; i++ {
				e.Run(p, 20, 100)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedEngine measures the sharded kernel on N independent
// partitions x M events each: every partition worker burns through local
// sleeps with a cross-shard completion send per batch, the shape of the
// serving hot path. Sub-benchmarks compare the sequential merge (shards=1)
// with parallel windows (shards=4/8) over the same workload; vreq-shaped
// determinism is asserted by TestShardedDeterminismTorture, here we only
// time the host.
func BenchmarkShardedEngine(b *testing.B) {
	const parts = 8
	for _, shards := range []int{1, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			events := b.N
			perPart := events/parts + 1
			k := NewKernel()
			k.EnableSharding(shards+1, 25*Microsecond)
			completions := NewPort[int](k, 0, "done", 25*Microsecond)
			for i := 0; i < parts; i++ {
				sh := 0
				if shards > 1 {
					sh = 1 + i%shards
				}
				k.SpawnOn(sh, uint64(100+i), fmt.Sprintf("worker-%d", i), func(p *Proc) {
					for n := 0; n < perPart; n++ {
						p.Sleep(2 * Microsecond)
					}
					completions.Send(p, 1)
				})
			}
			k.SpawnOn(0, 1, "host", func(p *Proc) {
				k.Parallelize()
				for n := 0; n < parts; n++ {
					completions.Recv(p)
				}
				p.Sequentialize()
			})
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			k.Shutdown()
		})
	}
}
