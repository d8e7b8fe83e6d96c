package devmem_test

import (
	"errors"
	"testing"

	"cronus/internal/gpu"
	"cronus/internal/npu"
	"cronus/internal/sim"
)

// context is what the table drives of a device's context: the memory its
// devmem.Space gives every device.
type context interface {
	MemAlloc(n uint64) (uint64, error)
	MemFree(va uint64) error
	HtoD(p *sim.Proc, dst uint64, src []byte) error
	DtoH(p *sim.Proc, dst []byte, src uint64) error
	CheckRange(ptr, n uint64) error
	Resolve(ptr uint64, n int) ([]byte, error)
}

// device is one accelerator as the table sees it.
type device struct {
	create  func() context
	destroy func(context)
	reset   func()
	used    func() uint64
	// backing is the whole backing, capacity included, behind the span at
	// ptr, as bytes.
	backing func(c context, ptr uint64) []byte
}

// accelerators are the devices whose memory is devmem's: each boots on a
// kernel with its typed faults beside it.
var accelerators = []struct {
	name           string
	elem           int // bytes per backing element
	stale, invalid error
	boot           func(k *sim.Kernel) device
}{
	{"gpu", 4, gpu.ErrStaleContext, gpu.ErrInvalidPointer, func(k *sim.Kernel) device {
		cfg := gpu.TuringConfig("gpu0")
		cfg.MemBytes = 64 << 20
		d := gpu.New(k, sim.DefaultCosts(), cfg)
		return device{
			create:  func() context { return d.CreateContext() },
			destroy: func(c context) { d.DestroyContext(c.(*gpu.Context)) },
			reset:   d.Reset, used: d.MemUsed,
			backing: func(c context, ptr uint64) []byte {
				s, _, _ := c.(*gpu.Context).Locate(ptr)
				return gpu.Bytes(s.Words[:cap(s.Words)])
			},
		}
	}},
	{"npu", 1, npu.ErrStaleContext, npu.ErrInvalidPointer, func(k *sim.Kernel) device {
		cfg := npu.DefaultConfig("npu0")
		cfg.MemBytes = 16 << 20
		d := npu.New(k, sim.DefaultCosts(), cfg)
		return device{
			create:  func() context { return d.CreateContext() },
			destroy: func(c context) { d.DestroyContext(c.(*npu.Context)) },
			reset:   d.Reset, used: d.MemUsed,
			backing: func(c context, ptr uint64) []byte {
				s, _, _ := c.(*npu.Context).Locate(ptr)
				return s.Words[:cap(s.Words)]
			},
		}
	}},
}

// inSim runs fn inside a one-process simulation.
func inSim(t *testing.T, fn func(k *sim.Kernel, p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("test", func(p *sim.Proc) { fn(k, p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func zero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestContextIsolation: one context can neither read another's memory nor
// resolve a pointer into it (VA isolation, §V-B).
func TestContextIsolation(t *testing.T) {
	for _, acc := range accelerators {
		t.Run(acc.name, func(t *testing.T) {
			inSim(t, func(k *sim.Kernel, p *sim.Proc) {
				d := acc.boot(k)
				a, b := d.create(), d.create()
				ptrA, _ := a.MemAlloc(64)
				a.HtoD(p, ptrA, []byte("tenant-a secret weights............"))
				if err := b.DtoH(p, make([]byte, 8), ptrA); !errors.Is(err, acc.invalid) {
					t.Errorf("context b read context a's memory: %v", err)
				}
				if _, err := b.Resolve(ptrA, 8); !errors.Is(err, acc.invalid) {
					t.Errorf("a pointer forged across contexts resolved: %v", err)
				}
			})
		})
	}
}

// TestDestroyContextScrubsAndFrees: destroying a context scrubs its memory
// and gives it back; a sibling context keeps its own.
func TestDestroyContextScrubsAndFrees(t *testing.T) {
	for _, acc := range accelerators {
		t.Run(acc.name, func(t *testing.T) {
			inSim(t, func(k *sim.Kernel, p *sim.Proc) {
				d := acc.boot(k)
				sibling := d.create()
				sPtr, _ := sibling.MemAlloc(32)
				sibling.HtoD(p, sPtr, []byte("the sibling's data.............."))
				used := d.used()
				victim := d.create()
				ptr, _ := victim.MemAlloc(64)
				victim.HtoD(p, ptr, []byte("the victim's weights............"))
				backing, _ := victim.Resolve(ptr, 32)
				d.destroy(victim)
				if !zero(backing) {
					t.Error("a destroyed context's memory was not scrubbed")
				}
				if got := d.used(); got != used {
					t.Errorf("device memory in use %d after the destroy, %d before the context", got, used)
				}
				if err := victim.HtoD(p, ptr, []byte{1}); !errors.Is(err, acc.stale) {
					t.Errorf("a destroyed context still resolves its pointers: %v", err)
				}
				out := make([]byte, 32)
				if err := sibling.DtoH(p, out, sPtr); err != nil || string(out[:18]) != "the sibling's data" {
					t.Errorf("the sibling's memory after the destroy: %q, %v", out[:18], err)
				}
			})
		})
	}
}

// TestDestroyedContextAllocatesNothing: a destroyed context is stale. An
// allocation through it is the device's ErrStaleContext and holds no device
// memory, so MemUsed is back at its value before the create, also after a
// second destroy.
func TestDestroyedContextAllocatesNothing(t *testing.T) {
	for _, acc := range accelerators {
		t.Run(acc.name, func(t *testing.T) {
			d := acc.boot(sim.NewKernel())
			before := d.used()
			c := d.create()
			if _, err := c.MemAlloc(4096); err != nil {
				t.Fatal(err)
			}
			d.destroy(c)
			if _, err := c.MemAlloc(4096); !errors.Is(err, acc.stale) {
				t.Errorf("MemAlloc on a destroyed context: %v, want %v", err, acc.stale)
			}
			d.destroy(c)
			if got := d.used(); got != before {
				t.Errorf("device memory in use %d after the destroys, %d before the create", got, before)
			}
		})
	}
}

// TestStaleContextIsTyped: once a destroy, a reset or the end of its kernel
// has given a context's memory back, every use of its memory is the device's
// own ErrStaleContext.
func TestStaleContextIsTyped(t *testing.T) {
	for _, acc := range accelerators {
		for _, how := range []struct {
			name string
			take func(k *sim.Kernel, d device, c context)
		}{
			{"destroy", func(_ *sim.Kernel, d device, c context) { d.destroy(c) }},
			{"reset", func(_ *sim.Kernel, d device, _ context) { d.reset() }},
			{"shutdown", func(k *sim.Kernel, _ device, _ context) { k.Shutdown() }},
		} {
			t.Run(acc.name+"/"+how.name, func(t *testing.T) {
				k := sim.NewKernel()
				d := acc.boot(k)
				c := d.create()
				ptr, _ := c.MemAlloc(64)
				how.take(k, d, c)
				if d.used() != 0 {
					t.Errorf("device memory in use %d after the context went", d.used())
				}
				inSim(t, func(_ *sim.Kernel, p *sim.Proc) {
					for name, err := range map[string]error{
						"MemAlloc":   func() error { _, err := c.MemAlloc(64); return err }(),
						"MemFree":    c.MemFree(ptr),
						"HtoD":       c.HtoD(p, ptr, []byte{1}),
						"DtoH":       c.DtoH(p, make([]byte, 1), ptr),
						"CheckRange": c.CheckRange(ptr, 1),
					} {
						if !errors.Is(err, acc.stale) {
							t.Errorf("%s on a stale context: %v, want %v", name, err, acc.stale)
						}
					}
				})
			})
		}
	}
}

// TestRecycledBackingsComeBackZero: a span's backing, handed out short of its
// capacity, written non-zero and given back by each return path, is the one
// the next allocation of its class gets — on another kernel and another
// device — and it is zero over its whole capacity.
func TestRecycledBackingsComeBackZero(t *testing.T) {
	for _, acc := range accelerators {
		for _, how := range []struct {
			name string
			give func(k *sim.Kernel, d device, c context, ptr uint64) error
		}{
			{"MemFree", func(_ *sim.Kernel, _ device, c context, ptr uint64) error { return c.MemFree(ptr) }},
			{"DestroyContext", func(_ *sim.Kernel, d device, c context, _ uint64) error { d.destroy(c); return nil }},
			{"Reset", func(_ *sim.Kernel, d device, _ context, _ uint64) error { d.reset(); return nil }},
			{"shutdown", func(k *sim.Kernel, _ device, _ context, _ uint64) error { k.Shutdown(); return nil }},
		} {
			t.Run(acc.name+"/"+how.name, func(t *testing.T) {
				k := sim.NewKernel()
				d := acc.boot(k)
				c := d.create()
				class := 4096 * acc.elem
				ptr, err := c.MemAlloc(uint64(3000*acc.elem + 1))
				if err != nil {
					t.Fatal(err)
				}
				w := d.backing(c, ptr)
				if len(w) != class {
					t.Fatalf("the backing holds %d bytes, want the %d-byte class", len(w), class)
				}
				buf, _ := c.Resolve(ptr, 3000*acc.elem+1)
				for i := range buf {
					buf[i] = 0xA5
				}
				if err := how.give(k, d, c, ptr); err != nil {
					t.Fatal(err)
				}
				if !zero(w) {
					t.Fatal("a backing given back was not scrubbed")
				}
				other := acc.boot(sim.NewKernel()).create()
				optr, err := other.MemAlloc(uint64(class))
				if err != nil {
					t.Fatal(err)
				}
				got := d.backing(other, optr)
				if &got[0] != &w[0] {
					t.Fatal("the next allocation of the class did not reuse the backing")
				}
				if !zero(got) {
					t.Fatal("a recycled backing came back non-zero")
				}
			})
		}
	}
}

// TestWrappingAddressIsInvalid: a range whose end wraps past 2^64 is the
// device's ErrInvalidPointer for a copy either way and for CheckRange, never a
// panic, and the context allocates and copies afterwards.
func TestWrappingAddressIsInvalid(t *testing.T) {
	const wrap = 1<<64 - 10
	for _, acc := range accelerators {
		t.Run(acc.name, func(t *testing.T) {
			inSim(t, func(k *sim.Kernel, p *sim.Proc) {
				c := acc.boot(k).create()
				if _, err := c.MemAlloc(4096); err != nil {
					t.Fatal(err)
				}
				for name, err := range map[string]error{
					"HtoD":       c.HtoD(p, wrap, make([]byte, 100)),
					"DtoH":       c.DtoH(p, make([]byte, 100), wrap),
					"CheckRange": c.CheckRange(wrap, 100),
				} {
					if !errors.Is(err, acc.invalid) {
						t.Errorf("%s at 2^64-10: %v, want %v", name, err, acc.invalid)
					}
				}
				ptr, err := c.MemAlloc(64)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.HtoD(p, ptr, make([]byte, 64)); err != nil {
					t.Errorf("the next HtoD: %v", err)
				}
			})
		})
	}
}
