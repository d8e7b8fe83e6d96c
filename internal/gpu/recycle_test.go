package gpu

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"cronus/internal/sim"
)

// backingOf returns the whole backing, capacity included, behind the span
// holding ptr.
func backingOf(t *testing.T, c *Context, ptr uint64) []float32 {
	t.Helper()
	s, _, err := c.Locate(ptr)
	if err != nil || s == nil {
		t.Fatalf("no span at %#x: %v", ptr, err)
	}
	return s.Words[:cap(s.Words)]
}

func allZero(w []float32) bool {
	for _, v := range w {
		if v != 0 {
			return false
		}
	}
	return true
}

// dirtyBytes is an allocation whose backing is handed out short of its
// capacity: 3,001 words of a 4,096-word class.
const dirtyBytes = 4*3000 + 1

// TestRecycledBackingsComeBackZero: the scratch arena, written non-zero and
// given back by a reset, the end of its kernel or its own growth, is the
// backing the next allocation of its class gets — on another kernel and
// another device — and it is zero over its whole capacity. The device memory
// of spans is held to the same by devmem.TestRecycledBackingsComeBackZero.
func TestRecycledBackingsComeBackZero(t *testing.T) {
	for _, tc := range []struct {
		name string
		give func(k *sim.Kernel, d *Device, c *Context)
	}{
		{"Reset", func(_ *sim.Kernel, d *Device, _ *Context) { d.Reset() }},
		{"shutdown", func(k *sim.Kernel, _ *Device, _ *Context) { k.Shutdown() }},
		{"scratch growth", func(_ *sim.Kernel, _ *Device, c *Context) { (&Exec{Ctx: c}).Scratch(5000) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			d := testGPU(k)
			c := d.CreateContext()
			s := (&Exec{Ctx: c}).Scratch(3001)
			w := fill(s[:cap(s)])
			if cap(w) != 4096 {
				t.Fatalf("the dirtied backing has %d words, want a 4096-word class", cap(w))
			}
			tc.give(k, d, c)
			if !allZero(w) {
				t.Fatal("a backing given back was not scrubbed")
			}
			other := testGPU(sim.NewKernel()).CreateContext()
			ptr, err := other.MemAlloc(4 * 4096)
			if err != nil {
				t.Fatal(err)
			}
			got := backingOf(t, other, ptr)
			if &got[0] != &w[0] {
				t.Fatal("the next allocation of the class did not reuse the backing")
			}
			if !allZero(got) {
				t.Fatal("a recycled backing came back non-zero")
			}
		})
	}
}

// fill sets every word of w to -1 and returns w.
func fill(w []float32) []float32 {
	for i := range w {
		w[i] = -1
	}
	return w
}

// TestViewsStopAtTheSpan: a recycled backing is longer than its span, and
// no float or byte view of the span reaches into the rest, which must stay
// zero for the next tenant of the backing.
func TestViewsStopAtTheSpan(t *testing.T) {
	c := testGPU(sim.NewKernel()).CreateContext()
	ptr, err := c.MemAlloc(dirtyBytes)
	if err != nil {
		t.Fatal(err)
	}
	if w := backingOf(t, c, ptr); cap(w) != 4096 {
		t.Fatalf("backing of %d words, want the 4096-word class", cap(w))
	}
	// The span's 12,001 bytes hold 3,000 whole floats and a byte of a 3,001st
	// word: the last whole float's view ends with that word.
	f, err := c.f32(ptr+4*2999, 1)
	if err != nil || cap(f) != 2 {
		t.Errorf("the last float's view has capacity %d (%v), want 2", cap(f), err)
	}
	b, err := c.Resolve(ptr+dirtyBytes-1, 1)
	if err != nil || cap(b) > 4 {
		t.Errorf("the last byte's view has capacity %d (%v), want at most its word", cap(b), err)
	}
}

// TestStaleContextReadsNoRecycledMemory: once a reset or the end of its
// kernel has given a context's memory back, every use of the context is a
// typed error, and a copy that was in flight when its memory went neither
// writes the recycled backing nor reads it.
func TestStaleContextReadsNoRecycledMemory(t *testing.T) {
	Register(&Kernel{Name: "stale_probe", Func: func(*Exec) error { return nil },
		Cost: func(float64, Dim, []uint64) LaunchCost { return LaunchCost{Work: 1, SMDemand: 1} }})
	uses := func(p *sim.Proc, c *Context, ptr uint64) map[string]error {
		return map[string]error{
			"MemAlloc":   func() error { _, err := c.MemAlloc(64); return err }(),
			"MemFree":    c.MemFree(ptr),
			"HtoD":       c.HtoD(p, ptr, []byte{1}),
			"DtoH":       c.DtoH(p, make([]byte, 1), ptr),
			"DtoD":       c.DtoD(p, ptr, ptr, 1),
			"CheckRange": c.CheckRange(ptr, 1),
			"Launch":     c.Launch(p, "stale_probe", Dim{1, 1, 1}),
		}
	}
	check := func(t *testing.T, errs map[string]error) {
		t.Helper()
		for name, err := range errs {
			if !errors.Is(err, ErrStaleContext) {
				t.Errorf("%s on a stale context: %v, want ErrStaleContext", name, err)
			}
		}
	}

	t.Run("reset", func(t *testing.T) {
		inSim(t, func(p *sim.Proc) {
			d := testGPU(p.Kernel())
			c := d.CreateContext()
			c.LoadModule(BuildCubin("stale_probe"))
			ptr, _ := c.MemAlloc(64)
			d.Reset()
			check(t, uses(p, c, ptr))
		})
	})

	t.Run("shutdown", func(t *testing.T) {
		var d *Device
		var c *Context
		var ptr uint64
		if err := sim.Run(func(p *sim.Proc) error {
			d = testGPU(p.Kernel())
			c = d.CreateContext()
			c.LoadModule(BuildCubin("stale_probe"))
			ptr, _ = c.MemAlloc(64)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if d.MemUsed() != 0 {
			t.Errorf("the device counts %d bytes in use after its kernel shut down", d.MemUsed())
		}
		inSim(t, func(p *sim.Proc) { check(t, uses(p, c, ptr)) })
	})

	// A copy charges its DMA first and moves the bytes after; a free or a
	// reset in between must find it checking again. The source half of the
	// backing is 3s and the rest 2s once it has gone, as a new tenant might
	// write it; the peer's memory is 1s.
	const size = 1 << 20
	for _, tc := range []struct {
		name string
		copy func(p *sim.Proc, c, peer *Context, ptr, peerPtr uint64) error
		take func(d *Device, c *Context, ptr uint64)
		want error
	}{
		{"HtoD across a free", func(p *sim.Proc, c, _ *Context, ptr, _ uint64) error {
			return c.HtoD(p, ptr, make([]byte, size))
		}, func(_ *Device, c *Context, ptr uint64) { c.MemFree(ptr) }, ErrInvalidPointer},
		{"DtoH across a reset", func(p *sim.Proc, c, _ *Context, ptr, _ uint64) error {
			dst := make([]byte, size)
			err := c.DtoH(p, dst, ptr)
			if !allZero(UnpackF32(dst)) {
				return errors.New("DtoH read memory that had gone back to the recycler")
			}
			return err
		}, func(d *Device, _ *Context, _ uint64) { d.Reset() }, ErrStaleContext},
		{"DtoD across a free", func(p *sim.Proc, c, _ *Context, ptr, _ uint64) error {
			return c.DtoD(p, ptr+size/2, ptr, size/2)
		}, func(_ *Device, c *Context, ptr uint64) { c.MemFree(ptr) }, ErrInvalidPointer},
		{"CopyPeer across the source's reset", func(p *sim.Proc, c, peer *Context, ptr, peerPtr uint64) error {
			return CopyPeer(p, peer, peerPtr, c, ptr, size)
		}, func(d *Device, _ *Context, _ uint64) { d.Reset() }, ErrStaleContext},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			d, peerDev := testGPU(k), testGPU(k)
			c, peer := d.CreateContext(), peerDev.CreateContext()
			ptr, _ := c.MemAlloc(size)
			peerPtr, _ := peer.MemAlloc(size)
			w, pw := backingOf(t, c, ptr), backingOf(t, peer, peerPtr)
			for i := range pw {
				pw[i] = 1
			}
			var copyErr error
			copied := false
			k.Spawn("copy", func(p *sim.Proc) {
				copyErr = tc.copy(p, c, peer, ptr, peerPtr)
				copied = true
			})
			k.Spawn("take", func(p *sim.Proc) {
				p.Sleep(sim.Microsecond)
				tc.take(d, c, ptr)
				for i := range w {
					w[i] = 2
					if i < size/8 {
						w[i] = 3
					}
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !copied || !errors.Is(copyErr, tc.want) {
				t.Errorf("the copy (finished %v): %v, want %v", copied, copyErr, tc.want)
			}
			for i, v := range w {
				want := float32(2)
				if i < size/8 {
					want = 3
				}
				if v != want {
					t.Fatalf("word %d of the recycled backing reads %v after the copy, want %v", i, v, want)
				}
			}
			for _, v := range pw {
				if v != 1 {
					t.Fatal("CopyPeer wrote its destination after its source went")
				}
			}
			clear(w) // as the recycler keeps it
		})
	}
}

// TestRecyclerAcrossGoroutines: two kernels on two goroutines allocate and
// free through the shared recycle.Float32s; every backing handed out is zero
// over its whole capacity and belongs to one span. make race runs it under
// the detector.
func TestRecyclerAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			err := sim.Run(func(p *sim.Proc) error {
				c := testGPU(p.Kernel()).CreateContext()
				rng := rand.New(rand.NewSource(seed))
				var live []uint64
				for step := 0; step < 300; step++ {
					if len(live) > 0 && rng.Intn(2) == 0 {
						i := rng.Intn(len(live))
						if err := c.MemFree(live[i]); err != nil {
							return err
						}
						live = append(live[:i], live[i+1:]...)
						continue
					}
					ptr, err := c.MemAlloc(uint64(1 + rng.Intn(64<<10)))
					if err != nil {
						return err
					}
					s, _, _ := c.Locate(ptr)
					if !allZero(s.Words[:cap(s.Words)]) {
						return errors.New("a backing came out of the recycler non-zero")
					}
					for i := range s.Words {
						s.Words[i] = float32(seed + 1)
					}
					live = append(live, ptr)
				}
				return nil // the rest goes back at shutdown
			})
			if err != nil {
				t.Error(err)
			}
		}(int64(g))
	}
	wg.Wait()
}
