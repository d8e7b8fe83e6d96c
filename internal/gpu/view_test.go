package gpu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"testing"

	"cronus/internal/sim"
)

// TestBytesIsTheDeviceRepresentation pins the one float representation:
// Bytes's bytes are the float32s in host byte order — on a little-endian
// host exactly what binary.LittleEndian writes, NaN payloads included — they
// are the floats' own memory, not a copy, and UnpackF32 reads them back from
// any host offset, aligned or not.
func TestBytesIsTheDeviceRepresentation(t *testing.T) {
	xs := []float32{0, float32(math.Copysign(0, -1)), 1, -2.5, 3e-41, math.MaxFloat32, float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa00000)}
	view := Bytes(xs)
	want := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		want = binary.NativeEndian.AppendUint32(want, math.Float32bits(x))
	}
	if !bytes.Equal(view, want) {
		t.Errorf("Bytes = % x, host byte order is % x", view, want)
	}
	packed := bytes.Clone(view)
	saved := xs[2]
	xs[2] = 7
	if got := binary.NativeEndian.Uint32(view[8:]); got != math.Float32bits(7) {
		t.Errorf("after a store to xs[2], Bytes reads %#x there: a copy, not a view", got)
	}
	xs[2] = saved
	if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 {
		for i, x := range xs {
			if got := binary.LittleEndian.Uint32(packed[4*i:]); got != math.Float32bits(x) {
				t.Errorf("element %d: bytes %#x, binary.LittleEndian writes %#x", i, got, math.Float32bits(x))
			}
		}
	}
	for off := 0; off < 4; off++ {
		// One allocation, the payload at every offset mod 4 in turn, plus a
		// trailing partial float that must be ignored.
		host := make([]byte, off+len(packed)+3)
		copy(host[off:], packed)
		got := UnpackF32(host[off:])
		if len(got) != len(xs) {
			t.Fatalf("offset %d: %d floats from %d bytes", off, len(got), len(host)-off)
		}
		for i := range xs {
			if math.Float32bits(got[i]) != math.Float32bits(xs[i]) {
				t.Errorf("offset %d: element %d = %#x, packed %#x", off, i, math.Float32bits(got[i]), math.Float32bits(xs[i]))
			}
		}
	}
}

// TestViewIsDeviceMemory checks that Exec.F32 hands out the device's memory
// and not a copy of it: what a kernel writes through a view is what DtoH
// returns, what HtoD wrote is what the next view reads, a view into the middle
// of an allocation starts there, and a matmul reads its operands afresh on
// every launch — nothing is cached in the arena between two.
func TestViewIsDeviceMemory(t *testing.T) {
	Register(&Kernel{
		Name: "test_view_bump",
		Cost: FlopCost(0.1, ElemFlops(1)),
		Func: func(e *Exec) error {
			v, err := e.F32(e.Arg(0), e.Grid.Elems())
			if err != nil {
				return err
			}
			for i := range v {
				v[i] += float32(i + 1)
			}
			return nil
		},
	})
	defer delete(registry, "test_view_bump")
	inSim(t, func(p *sim.Proc) {
		ctx := testGPU(p.Kernel()).CreateContext()
		if err := ctx.LoadModule(BuildCubin("test_view_bump", "matmul")); err != nil {
			t.Error(err)
			return
		}
		read := func(ptr uint64, n int) []float32 {
			raw := make([]byte, 4*n)
			if err := ctx.DtoH(p, raw, ptr); err != nil {
				t.Error(err)
			}
			return UnpackF32(raw)
		}
		buf, _ := ctx.MemAlloc(4 * 6)
		ctx.HtoD(p, buf, Bytes([]float32{10, 20, 30, 40, 50, 60}))
		// Bump elements 2..4 through a view that starts 8 bytes in, twice,
		// with a host write in between.
		if err := ctx.Launch(p, "test_view_bump", Dim{3, 1, 1}, buf+8); err != nil {
			t.Error(err)
		}
		ctx.HtoD(p, buf+12, Bytes([]float32{-1}))
		if err := ctx.Launch(p, "test_view_bump", Dim{3, 1, 1}, buf+8); err != nil {
			t.Error(err)
		}
		if got, want := read(buf, 6), []float32{10, 20, 32, 1, 56, 60}; !equalF32(got, want) {
			t.Errorf("after two bumps device memory holds %v, want %v", got, want)
		}

		a, _ := ctx.MemAlloc(4 * 4)
		b, _ := ctx.MemAlloc(4 * 4)
		c, _ := ctx.MemAlloc(4 * 4)
		ctx.HtoD(p, a, Bytes([]float32{1, 2, 3, 4}))
		ctx.HtoD(p, b, Bytes([]float32{1, 0, 0, 1}))
		for _, wantC := range [][]float32{{1, 2, 3, 4}, {1, 2, 0, 4}} {
			if err := ctx.Launch(p, "matmul", Dim{1, 1, 1}, a, b, c, 2, 2, 2); err != nil {
				t.Error(err)
			}
			if got := read(c, 4); !equalF32(got, wantC) {
				t.Errorf("A × I = %v, want %v", got, wantC)
			}
			ctx.HtoD(p, a+8, Bytes([]float32{0})) // A[1,0] = 0 for the second round
		}
	})
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestHostileLaunchDimensions: launch arguments are the calling mEnclave's,
// and a dimension chosen so that a byte count wraps used to reach a slice
// expression and panic the whole simulation. Each is a typed error now, the
// faulting context stays usable and its neighbour on the device never notices.
func TestHostileLaunchDimensions(t *testing.T) {
	inSim(t, func(p *sim.Proc) {
		dev := testGPU(p.Kernel())
		ctx, neighbour := dev.CreateContext(), dev.CreateContext()
		for _, c := range []*Context{ctx, neighbour} {
			if err := c.LoadModule(BuildCubin("matmul", "vec_add", "reduce_sum")); err != nil {
				t.Error(err)
				return
			}
		}
		a, _ := ctx.MemAlloc(4 * 16)
		n, _ := neighbour.MemAlloc(4 * 16)
		neg := func(v int64) uint64 { return uint64(v) }
		for _, dims := range [][3]uint64{
			{1 << 62, 1, 1},       // m·k·4 wraps to 0
			{1, 1 << 62, 1},       // k·n·4 wraps to 0
			{1 << 32, 1, 1 << 32}, // m·k wraps to 0 before the ·4
			{1 << 31, 2, 1 << 31}, // m·k = 2^62: no wrap, far past the span
			{neg(-1), 1, 1},       // negative as an int
			{4, 4, neg(-4)},       // m·k = -16, k·n = -16: the products look like sizes again
			{0, 0, 1 << 62},       // nothing to compute, an astronomical loop bound
			{5, 4, 4},             // one row past the 16-float allocation
		} {
			err := ctx.Launch(p, "matmul", Dim{1, 1, 1}, a, a, a, dims[0], dims[1], dims[2])
			if dims[0] == 0 {
				if err != nil {
					t.Errorf("matmul M,N,K = %d: %v, want the empty product", dims, err)
				}
				continue
			}
			if !errors.Is(err, ErrInvalidPointer) {
				t.Errorf("matmul M,N,K = %d: %v, want ErrInvalidPointer", dims, err)
			}
		}
		// Grids whose element count or byte count wraps, at either int width
		// (2^62, 2^61·2 and 2^32·2^31 on a 64-bit int).
		w := bits.UintSize
		for _, grid := range []Dim{{1 << (w - 2), 1, 1}, {1 << (w - 3), 2, 1}, {1 << (w / 2), 1 << (w/2 - 1), 1}, {math.MaxInt, 1, 1}} {
			if err := ctx.Launch(p, "vec_add", grid, a, a, a); !errors.Is(err, ErrInvalidPointer) {
				t.Errorf("vec_add grid %v: %v, want ErrInvalidPointer", grid, err)
			}
		}
		// A negative length reaches resolve from every copy entry point.
		if _, err := ctx.Resolve(a, -1); !errors.Is(err, ErrInvalidPointer) {
			t.Errorf("resolve(-1): %v, want ErrInvalidPointer", err)
		}
		if err := ctx.DtoD(p, a, a+32, -8); !errors.Is(err, ErrInvalidPointer) {
			t.Errorf("DtoD(-8): %v, want ErrInvalidPointer", err)
		}
		if err := CopyPeer(p, neighbour, n, ctx, a, math.MinInt); !errors.Is(err, ErrInvalidPointer) {
			t.Errorf("CopyPeer(MinInt): %v, want ErrInvalidPointer", err)
		}
		// Both contexts still compute.
		for i, c := range []struct {
			ctx *Context
			ptr uint64
		}{{ctx, a}, {neighbour, n}} {
			c.ctx.HtoD(p, c.ptr, Bytes([]float32{1, 2, 3, 4, 0}))
			if err := c.ctx.Launch(p, "reduce_sum", Dim{4, 1, 1}, c.ptr, c.ptr+16); err != nil {
				t.Errorf("context %d after the hostile launches: %v", i, err)
			}
			raw := make([]byte, 4)
			c.ctx.DtoH(p, raw, c.ptr+16)
			if got := UnpackF32(raw)[0]; got != 10 {
				t.Errorf("context %d after the hostile launches: sum %v, want 10", i, got)
			}
		}
	})
}
