package npu

import (
	"errors"
	"testing"

	"cronus/internal/sim"
)

// backingOf returns the whole backing, capacity included, behind the span
// holding addr.
func backingOf(t *testing.T, c *Context, addr uint64) []byte {
	t.Helper()
	s, _, err := c.Locate(addr)
	if err != nil || s == nil {
		t.Fatalf("no span at %#x: %v", addr, err)
	}
	return s.Words[:cap(s.Words)]
}

// scratchpads are one device's scratchpads at their whole capacities.
type scratchpads struct {
	pads [][]byte // inp, wgt, out
	acc  []int32
}

// dirty gives c the scratchpads, fills them non-zero and returns their whole
// backings.
func dirty(d *Device, c *Context) scratchpads {
	d.takeScratchpads(c)
	m := scratchpads{acc: d.acc[:cap(d.acc)], pads: [][]byte{d.inp[:cap(d.inp)], d.wgt[:cap(d.wgt)], d.out[:cap(d.out)]}}
	for _, b := range m.pads {
		for i := range b {
			b[i] = 0xA5
		}
	}
	for i := range m.acc {
		m.acc[i] = -1
	}
	return m
}

func zeroBytes(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestRecycledMemoryComesBackZero: the four scratchpads, written non-zero and
// given back by a destroy, a reset or the end of their kernel, are zero over
// their whole capacity, and an NPU on another kernel takes the same backings
// for its scratchpads. DRAM spans are held to the same by
// devmem.TestRecycledBackingsComeBackZero.
func TestRecycledMemoryComesBackZero(t *testing.T) {
	for _, tc := range []struct {
		name string
		give func(k *sim.Kernel, d *Device, c *Context)
	}{
		{"DestroyContext", func(_ *sim.Kernel, d *Device, c *Context) { d.DestroyContext(c) }},
		{"Reset", func(_ *sim.Kernel, d *Device, _ *Context) { d.Reset() }},
		{"shutdown", func(k *sim.Kernel, _ *Device, _ *Context) { k.Shutdown() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			d := testNPU(k)
			c := d.CreateContext()
			m := dirty(d, c)
			tc.give(k, d, c)
			if d.inp != nil || d.wgt != nil || d.acc != nil || d.out != nil {
				t.Error("the device still holds scratchpads it gave back")
			}
			for _, b := range m.pads {
				if !zeroBytes(b) {
					t.Fatal("a backing given back was not scrubbed")
				}
			}
			for _, v := range m.acc {
				if v != 0 {
					t.Fatal("the accumulator scratchpad given back was not scrubbed")
				}
			}

			other := testNPU(sim.NewKernel())
			other.takeScratchpads(other.CreateContext())
			// inp and out share a class, so either may take either.
			same := func(a, b []byte) bool { return &a[0] == &b[0] }
			inp, wgt, out := m.pads[0], m.pads[1], m.pads[2]
			if !same(other.wgt, wgt) || &other.acc[0] != &m.acc[0] ||
				!(same(other.inp, inp) && same(other.out, out) || same(other.inp, out) && same(other.out, inp)) {
				t.Error("another NPU's scratchpads are not the backings given back")
			}
		})
	}
}

// TestStaleTransfersTouchNoRecycledMemory: a copy charges its DMA first and
// moves the bytes after. An HtoD across its context's destroy and a DtoH
// across a device reset are typed errors, and neither writes nor reads the
// backing that went back to the recycler, which a new tenant (here: 2s)
// may be using.
func TestStaleTransfersTouchNoRecycledMemory(t *testing.T) {
	const size = 1 << 20
	for _, tc := range []struct {
		name string
		copy func(p *sim.Proc, c *Context, addr uint64) error
		take func(d *Device, c *Context)
	}{
		{"HtoD across a destroy", func(p *sim.Proc, c *Context, addr uint64) error {
			src := make([]byte, size)
			for i := range src {
				src[i] = 1
			}
			return c.HtoD(p, addr, src)
		}, func(d *Device, c *Context) { d.DestroyContext(c) }},
		{"DtoH across a reset", func(p *sim.Proc, c *Context, addr uint64) error {
			dst := make([]byte, size)
			err := c.DtoH(p, dst, addr)
			if !zeroBytes(dst) {
				return errors.New("DtoH read memory that had gone back to the recycler")
			}
			return err
		}, func(d *Device, _ *Context) { d.Reset() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			d := testNPU(k)
			c := d.CreateContext()
			addr, err := c.MemAlloc(size)
			if err != nil {
				t.Fatal(err)
			}
			w := backingOf(t, c, addr)
			var copyErr error
			copied := false
			k.Spawn("copy", func(p *sim.Proc) {
				copyErr = tc.copy(p, c, addr)
				copied = true
			})
			k.Spawn("take", func(p *sim.Proc) {
				p.Sleep(sim.Microsecond)
				tc.take(d, c)
				for i := range w {
					w[i] = 2
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !copied || !errors.Is(copyErr, ErrStaleContext) {
				t.Errorf("the copy (finished %v): %v, want ErrStaleContext", copied, copyErr)
			}
			for i, v := range w {
				if v != 2 {
					t.Fatalf("byte %d of the recycled backing reads %d after the copy, want 2", i, v)
				}
			}
			clear(w) // as the recycler keeps it
		})
	}
}

// TestMemAllocSizeCannotWrap: the size of an allocation comes off the wire,
// and one that would wrap memUsed+n past 2^64 is ErrOutOfMemory, not a
// panic, with nothing charged.
func TestMemAllocSizeCannotWrap(t *testing.T) {
	d := testNPU(sim.NewKernel())
	c := d.CreateContext()
	if _, err := c.MemAlloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MemAlloc(1<<64 - 101); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("MemAlloc(2^64-101): %v, want ErrOutOfMemory", err)
	}
	if got := d.MemUsed(); got != 4096 {
		t.Errorf("device memory in use %d, want 4096", got)
	}
	if _, err := c.MemAlloc(16); err != nil {
		t.Errorf("the next allocation: %v", err)
	}
}
