package sim

import "testing"

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
			k.Spawn("child", func(*Proc) {})
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
