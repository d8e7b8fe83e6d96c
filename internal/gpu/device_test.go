package gpu

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cronus/internal/attest"
	"cronus/internal/sim"
)

func testGPU(k *sim.Kernel) *Device {
	cfg := TuringConfig("gpu0")
	cfg.MemBytes = 64 << 20
	d := New(k, sim.DefaultCosts(), cfg)
	return d
}

// inSim runs fn inside a one-process simulation.
func inSim(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("test", fn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMemAllocCopyRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	k.Spawn("test", func(p *sim.Proc) {
		ctx := d.CreateContext()
		ptr, err := ctx.MemAlloc(1024)
		if err != nil {
			t.Error(err)
			return
		}
		src := Bytes([]float32{1, 2, 3, 4})
		if err := ctx.HtoD(p, ptr, src); err != nil {
			t.Error(err)
			return
		}
		dst := make([]byte, len(src))
		if err := ctx.DtoH(p, dst, ptr); err != nil {
			t.Error(err)
			return
		}
		got := UnpackF32(dst)
		if got[0] != 1 || got[3] != 4 {
			t.Errorf("round trip got %v", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestContextIsolation(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	k.Spawn("test", func(p *sim.Proc) {
		a := d.CreateContext()
		b := d.CreateContext()
		ptrA, _ := a.MemAlloc(64)
		a.HtoD(p, ptrA, []byte("tenant-a secret weights............"))
		// Context b cannot resolve a's pointer (VA isolation, §V-B).
		if err := b.DtoH(p, make([]byte, 8), ptrA); err == nil {
			t.Error("context b read context a's memory")
		}
		// Nor can b forge a pointer into a's VA range.
		if _, err := b.resolve(ptrA, 8); err == nil {
			t.Error("pointer forgery resolved")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfMemory(t *testing.T) {
	k := sim.NewKernel()
	cfg := TuringConfig("gpu0")
	cfg.MemBytes = 1 << 20
	d := New(k, sim.DefaultCosts(), cfg)
	ctx := d.CreateContext()
	if _, err := ctx.MemAlloc(2 << 20); err == nil || !strings.Contains(err.Error(), "out of device memory") {
		t.Fatalf("err = %v", err)
	}
	// Free returns capacity.
	ptr, err := ctx.MemAlloc(512 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.MemAlloc(768 << 10); err == nil {
		t.Fatal("overcommit accepted")
	}
	if err := ctx.MemFree(ptr); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.MemAlloc(768 << 10); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestCubinRoundTrip(t *testing.T) {
	img := BuildCubin("vec_add", "matmul")
	names, err := ParseCubin(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "vec_add" || names[1] != "matmul" {
		t.Fatalf("names = %v", names)
	}
	if _, err := ParseCubin([]byte("ELF garbage")); err == nil {
		t.Fatal("garbage accepted as cubin")
	}
}

func TestLoadModuleUnknownKernel(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	ctx := d.CreateContext()
	if err := ctx.LoadModule(BuildCubin("no_such_kernel")); err == nil {
		t.Fatal("module with unknown kernel loaded")
	}
}

func TestLaunchVecAddComputes(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	k.Spawn("test", func(p *sim.Proc) {
		ctx := d.CreateContext()
		if err := ctx.LoadModule(BuildCubin("vec_add")); err != nil {
			t.Error(err)
			return
		}
		n := 256
		a, _ := ctx.MemAlloc(uint64(n * 4))
		b, _ := ctx.MemAlloc(uint64(n * 4))
		c, _ := ctx.MemAlloc(uint64(n * 4))
		av := make([]float32, n)
		bv := make([]float32, n)
		for i := range av {
			av[i] = float32(i)
			bv[i] = float32(2 * i)
		}
		ctx.HtoD(p, a, Bytes(av))
		ctx.HtoD(p, b, Bytes(bv))
		if err := ctx.Launch(p, "vec_add", Dim{n, 1, 1}, a, b, c); err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, n*4)
		ctx.DtoH(p, out, c)
		cv := UnpackF32(out)
		for i := range cv {
			if cv[i] != float32(3*i) {
				t.Errorf("c[%d] = %v, want %v", i, cv[i], float32(3*i))
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchMatmulComputes(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	k.Spawn("test", func(p *sim.Proc) {
		ctx := d.CreateContext()
		ctx.LoadModule(BuildCubin("matmul"))
		// 2x3 × 3x2.
		a, _ := ctx.MemAlloc(24)
		b, _ := ctx.MemAlloc(24)
		c, _ := ctx.MemAlloc(16)
		ctx.HtoD(p, a, Bytes([]float32{1, 2, 3, 4, 5, 6}))
		ctx.HtoD(p, b, Bytes([]float32{7, 8, 9, 10, 11, 12}))
		if err := ctx.Launch(p, "matmul", Dim{2, 2, 1}, a, b, c, 2, 2, 3); err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, 16)
		ctx.DtoH(p, out, c)
		got := UnpackF32(out)
		want := []float32{58, 64, 139, 154}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("C = %v, want %v", got, want)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchUnloadedKernelFails(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	k.Spawn("test", func(p *sim.Proc) {
		ctx := d.CreateContext()
		if err := ctx.Launch(p, "vec_add", Dim{1, 1, 1}); err == nil {
			t.Error("launch of unloaded kernel succeeded")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMPSSpatialSharingBeatsExclusive(t *testing.T) {
	// Two contexts each launching kernels that fill under half the SMs:
	// with MPS the total time is ~half the exclusive-mode time.
	run := func(mps bool) sim.Time {
		k := sim.NewKernel()
		cfg := TuringConfig("gpu0")
		cfg.MemBytes = 16 << 20
		cfg.MPS = mps
		d := New(k, sim.DefaultCosts(), cfg)
		Register(&Kernel{
			Name: "half_kernel",
			Cost: func(sms float64, _ Dim, _ []uint64) LaunchCost {
				return LaunchCost{Work: sim.Duration(1 * sim.Millisecond), SMDemand: sms * 0.45}
			},
			Func: func(e *Exec) error { return nil },
		})
		var end sim.Time
		wg := sim.NewWaitGroup(k)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			k.Spawn("tenant", func(p *sim.Proc) {
				ctx := d.CreateContext()
				ctx.LoadModule(BuildCubin("half_kernel"))
				for j := 0; j < 4; j++ {
					ctx.Launch(p, "half_kernel", Dim{1, 1, 1})
				}
				wg.Done()
			})
		}
		k.Spawn("wait", func(p *sim.Proc) { wg.Wait(p); end = p.Now() })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	spatial := run(true)
	temporal := run(false)
	ratio := float64(temporal) / float64(spatial)
	if ratio < 1.5 {
		t.Fatalf("spatial=%v temporal=%v ratio=%.2f, want >= 1.5", spatial, temporal, ratio)
	}
}

func TestResetScrubsMemoryAndKillsContexts(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	k.Spawn("test", func(p *sim.Proc) {
		ctx := d.CreateContext()
		ptr, _ := ctx.MemAlloc(64)
		ctx.HtoD(p, ptr, []byte("crashed enclave's data.........."))
		// Grab the backing to check the scrub (simulating a new tenant
		// who would be handed recycled memory).
		backing, _ := ctx.resolve(ptr, 32)
		d.Reset()
		for _, b := range backing {
			if b != 0 {
				t.Error("device memory leaked across reset (A3)")
				return
			}
		}
		if _, err := ctx.MemAlloc(64); err != ErrStaleContext {
			t.Errorf("stale context alloc: err = %v", err)
		}
		if err := ctx.HtoD(p, ptr, []byte("x")); err != ErrStaleContext {
			t.Errorf("stale context copy: err = %v", err)
		}
		if d.MemUsed() != 0 {
			t.Error("memory accounting not reset")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDestroyContextScrubsAndFrees: destroying a CUDA mEnclave's context
// scrubs its memory and gives it back; a sibling context keeps its own.
func TestDestroyContextScrubsAndFrees(t *testing.T) {
	inSim(t, func(p *sim.Proc) {
		d := New(p.Kernel(), sim.DefaultCosts(), TuringConfig("gpu0"))
		sibling := d.CreateContext()
		sPtr, _ := sibling.MemAlloc(32)
		sibling.HtoD(p, sPtr, []byte("the sibling's data.............."))
		used := d.MemUsed()
		victim := d.CreateContext()
		ptr, _ := victim.MemAlloc(64)
		victim.HtoD(p, ptr, []byte("the victim's weights............"))
		backing, _ := victim.resolve(ptr, 32)
		d.DestroyContext(victim)
		for _, b := range backing {
			if b != 0 {
				t.Error("a destroyed context's memory was not scrubbed")
				break
			}
		}
		if got := d.MemUsed(); got != used {
			t.Errorf("device memory in use %d after the destroy, %d before the context", got, used)
		}
		if err := victim.HtoD(p, ptr, []byte{1}); err == nil {
			t.Error("a destroyed context still resolves its pointers")
		}
		out := make([]byte, 32)
		if err := sibling.DtoH(p, out, sPtr); err != nil || string(out[:18]) != "the sibling's data" {
			t.Errorf("the sibling's memory after the destroy: %q, %v", out[:18], err)
		}
	})
}

// TestKilledUserReleasesEngines: recovery kills a partition's procs wherever
// they are, a DMA or a kernel in flight included. The copy engine or the
// whole-device lock they held must come back, or the next tenant of the
// device waits forever.
func TestKilledUserReleasesEngines(t *testing.T) {
	Register(&Kernel{
		Name: "long_kernel",
		Cost: func(sms float64, _ Dim, _ []uint64) LaunchCost {
			return LaunchCost{Work: sim.Duration(sim.Millisecond), SMDemand: sms}
		},
		Func: func(e *Exec) error { return nil },
	})
	for _, tc := range []struct {
		name string
		use  func(p *sim.Proc, c, peer *Context, ptr, peerPtr uint64) error
	}{
		{"htod", func(p *sim.Proc, c, _ *Context, ptr, _ uint64) error { return c.HtoD(p, ptr, make([]byte, 1<<20)) }},
		{"peer-copy", func(p *sim.Proc, c, peer *Context, ptr, peerPtr uint64) error {
			return CopyPeer(p, peer, peerPtr, c, ptr, 1<<20)
		}},
		{"exclusive-launch", func(p *sim.Proc, c, _ *Context, _, _ uint64) error {
			return c.Launch(p, "long_kernel", Dim{1, 1, 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			cfg := TuringConfig("gpu0")
			cfg.MemBytes, cfg.CopyEngs, cfg.MPS = 16<<20, 1, false
			d := New(k, sim.DefaultCosts(), cfg)
			cfg.Name = "gpu1"
			peerDev := New(k, sim.DefaultCosts(), cfg)
			tenant := func() func(p *sim.Proc) error {
				c, peer := d.CreateContext(), peerDev.CreateContext()
				c.LoadModule(BuildCubin("long_kernel"))
				ptr, _ := c.MemAlloc(1 << 20)
				peerPtr, _ := peer.MemAlloc(1 << 20)
				return func(p *sim.Proc) error { return tc.use(p, c, peer, ptr, peerPtr) }
			}
			victim, next := tenant(), tenant()
			vp := k.Spawn("victim", func(p *sim.Proc) {
				victim(p)
				t.Error("the victim finished")
			})
			k.Spawn("killer", func(p *sim.Proc) {
				p.Sleep(10 * sim.Microsecond)
				k.Kill(vp)
			})
			done := false
			k.Spawn("next", func(p *sim.Proc) {
				p.Sleep(20 * sim.Microsecond)
				if err := next(p); err != nil {
					t.Error(err)
				}
				done = true
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !done {
				t.Error("the next tenant never ran")
			}
		})
	}
}

func TestDeviceAuthenticity(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	challenge := []byte("mOS nonce 12345")
	sig := d.Authenticate(challenge)
	if !attest.Verify(d.PubKey(), challenge, sig) {
		t.Fatal("genuine device signature rejected")
	}
	// A fabricated device with a different fuse cannot produce the
	// vendor-endorsed key's signature.
	fakeCfg := TuringConfig("gpu0")
	fakeCfg.KeySeed = "fake"
	fake := New(k, sim.DefaultCosts(), fakeCfg)
	if attest.Verify(d.PubKey(), challenge, fake.Authenticate(challenge)) {
		t.Fatal("fabricated device impersonated the genuine key")
	}
}

func TestCopyPeerTransfersAcrossDevices(t *testing.T) {
	k := sim.NewKernel()
	d1 := testGPU(k)
	cfg := TuringConfig("gpu1")
	cfg.MemBytes = 16 << 20
	d2 := New(k, sim.DefaultCosts(), cfg)
	k.Spawn("test", func(p *sim.Proc) {
		c1 := d1.CreateContext()
		c2 := d2.CreateContext()
		p1, _ := c1.MemAlloc(32)
		p2, _ := c2.MemAlloc(32)
		c1.HtoD(p, p1, []byte("gradients for the all-reduce... "))
		if err := CopyPeer(p, c2, p2, c1, p1, 32); err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, 32)
		c2.DtoH(p, out, p2)
		if string(out[:9]) != "gradients" {
			t.Errorf("peer copy got %q", out[:9])
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDtoDAndMemFreeScrub(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	k.Spawn("test", func(p *sim.Proc) {
		ctx := d.CreateContext()
		a, _ := ctx.MemAlloc(16)
		b, _ := ctx.MemAlloc(16)
		ctx.HtoD(p, a, []byte("0123456789abcdef"))
		if err := ctx.DtoD(p, b, a, 16); err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, 16)
		ctx.DtoH(p, out, b)
		if string(out) != "0123456789abcdef" {
			t.Errorf("DtoD got %q", out)
		}
		backing, _ := ctx.resolve(a, 16)
		ctx.MemFree(a)
		for _, v := range backing {
			if v != 0 {
				t.Error("freed allocation not scrubbed")
				return
			}
		}
		if err := ctx.MemFree(a); err == nil {
			t.Error("double free accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: HtoD then DtoH is the identity for arbitrary payloads/offsets.
func TestCopyQuickProperty(t *testing.T) {
	k := sim.NewKernel()
	d := testGPU(k)
	var fail string
	k.Spawn("test", func(p *sim.Proc) {
		ctx := d.CreateContext()
		ptr, _ := ctx.MemAlloc(8192)
		f := func(data []byte, off uint16) bool {
			if len(data) == 0 {
				return true
			}
			if len(data) > 4096 {
				data = data[:4096]
			}
			at := ptr + uint64(off%4096)
			if err := ctx.HtoD(p, at, data); err != nil {
				return false
			}
			out := make([]byte, len(data))
			if err := ctx.DtoH(p, out, at); err != nil {
				return false
			}
			return string(out) == string(data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			fail = err.Error()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fail != "" {
		t.Fatal(fail)
	}
}

func TestGridElems(t *testing.T) {
	if (Dim{4, 5, 0}).Elems() != 20 {
		t.Fatal("zero axis must be ignored")
	}
	if (Dim{3, 1, 1}).Elems() != 3 {
		t.Fatal("elems wrong")
	}
}

func TestMIGSlicesIsolateTenants(t *testing.T) {
	// Two tenants with kernels that would each fill the device: under
	// MIG-2 each is confined to half the SMs — perfectly parallel (no
	// cross-tenant interference) but each kernel takes 2x its full-device
	// time. Under MPS the same pair time-shares the whole pool.
	run := func(mig int) sim.Time {
		k := sim.NewKernel()
		cfg := TuringConfig("gpu0")
		cfg.MemBytes = 16 << 20
		d := New(k, sim.DefaultCosts(), cfg)
		d.ConfigureMIG(mig)
		Register(&Kernel{
			Name: "full_kernel",
			Cost: func(float64, Dim, []uint64) LaunchCost {
				return LaunchCost{Work: sim.Duration(1 * sim.Millisecond), SMDemand: d.SMs()}
			},
			Func: func(e *Exec) error { return nil },
		})
		var end sim.Time
		wg := sim.NewWaitGroup(k)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			k.Spawn("tenant", func(p *sim.Proc) {
				ctx := d.CreateContext()
				ctx.LoadModule(BuildCubin("full_kernel"))
				for j := 0; j < 3; j++ {
					ctx.Launch(p, "full_kernel", Dim{1, 1, 1})
				}
				wg.Done()
			})
		}
		k.Spawn("wait", func(p *sim.Proc) { wg.Wait(p); end = p.Now() })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	mig := run(2)
	mps := run(0) // MPS (cfg default) with full-device kernels
	// MIG: each tenant runs 3 kernels at 2x duration in parallel -> ~6ms.
	// MPS: 6 full-device kernels share the pool -> also ~6ms aggregate,
	// but MIG's guarantee is *determinism*: both tenants finish at the
	// same time regardless of the other's behaviour.
	if mig <= 0 || mps <= 0 {
		t.Fatal("no time elapsed")
	}
	ratio := float64(mig) / float64(mps)
	if ratio < 0.9 || ratio > 1.3 {
		t.Errorf("MIG/MPS ratio %.2f outside the expected band", ratio)
	}
}

func TestMIGCapsKernelDemand(t *testing.T) {
	k := sim.NewKernel()
	cfg := TuringConfig("gpu0")
	cfg.MemBytes = 16 << 20
	d := New(k, sim.DefaultCosts(), cfg)
	d.ConfigureMIG(4)
	Register(&Kernel{
		Name: "half_demand",
		Cost: func(float64, Dim, []uint64) LaunchCost {
			return LaunchCost{Work: sim.Duration(1 * sim.Millisecond), SMDemand: d.SMs() / 2}
		},
		Func: func(e *Exec) error { return nil },
	})
	var took sim.Duration
	k.Spawn("t", func(p *sim.Proc) {
		ctx := d.CreateContext()
		ctx.LoadModule(BuildCubin("half_demand"))
		start := p.Now()
		ctx.Launch(p, "half_demand", Dim{1, 1, 1})
		took = sim.Duration(p.Now() - start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Demand 23 capped to slice 11.5 -> work stretches 2x (plus dispatch).
	want := 2*sim.Millisecond + sim.DefaultCosts().KernelDispatch
	if took < want-sim.Microsecond || took > want+sim.Microsecond {
		t.Errorf("took %v, want ~%v", took, want)
	}
}

// TestResolveAfterInterleavedAllocFree pins what MemAlloc relies on now that
// it appends instead of sorting: a context's VAs only grow, so spans stay in
// the VA order resolve's binary search needs through any alloc/free mix.
func TestResolveAfterInterleavedAllocFree(t *testing.T) {
	ctx := testGPU(sim.NewKernel()).CreateContext()
	live := map[uint64]uint64{} // va -> size
	var order []uint64
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 400; step++ {
		if len(order) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(order))
			va := order[i]
			order = append(order[:i], order[i+1:]...)
			if err := ctx.MemFree(va); err != nil {
				t.Fatal(err)
			}
			if _, err := ctx.resolve(va, 1); err == nil {
				t.Fatalf("step %d: freed span %#x still resolves", step, va)
			}
			delete(live, va)
		} else {
			size := uint64(1 + rng.Intn(3*0x1000))
			va, err := ctx.MemAlloc(size)
			if err != nil {
				t.Fatal(err)
			}
			live[va] = size
			order = append(order, va)
		}
		for i := 1; i < len(ctx.spans); i++ {
			if ctx.spans[i-1].va >= ctx.spans[i].va {
				t.Fatalf("step %d: spans out of VA order at %d", step, i)
			}
		}
		for va, size := range live {
			if _, err := ctx.resolve(va, int(size)); err != nil {
				t.Fatalf("step %d: live span %#x (+%d) lost: %v", step, va, size, err)
			}
			if _, err := ctx.resolve(va+size-1, 1); err != nil {
				t.Fatalf("step %d: last byte of %#x lost: %v", step, va, err)
			}
			if _, err := ctx.resolve(va, int(size)+1); err == nil {
				t.Fatalf("step %d: span %#x resolves past its end", step, va)
			}
		}
	}
}
