package rodinia_test

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/workload/rodinia"
)

// onContext runs body on a fresh context of a bare GPU, inside a one-process
// simulation.
func onContext(t *testing.T, body func(p *sim.Proc, dev *gpu.Device)) {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		body(p, gpu.New(k, sim.DefaultCosts(), gpu.TuringConfig("g")))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func upload(t *testing.T, p *sim.Proc, ctx *gpu.Context, xs []float32) uint64 {
	t.Helper()
	ptr, err := ctx.MemAlloc(uint64(4 * max(len(xs), 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.HtoD(p, ptr, gpu.Bytes(xs)); err != nil {
		t.Fatal(err)
	}
	return ptr
}

func download(t *testing.T, p *sim.Proc, ctx *gpu.Context, ptr uint64, n int) []float32 {
	t.Helper()
	raw := make([]byte, 4*n)
	if err := ctx.DtoH(p, raw, ptr); err != nil {
		t.Fatal(err)
	}
	return gpu.UnpackF32(raw)
}

func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// naiveLayerForward is bp_layerforward's own loop before it ran on the std
// matmul body, kept as the reference: each y[i,j] adds its K products in
// ascending t, skipping zero x elements, then takes the sigmoid.
func naiveLayerForward(x, w []float32, m, n, k int) []float32 {
	y := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for t := 0; t < k; t++ {
			xv := x[i*k+t]
			if xv == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				y[i*n+j] += xv * w[t*n+j]
			}
		}
	}
	for i, v := range y {
		y[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return y
}

// TestLayerForwardMatchesNaiveLoop holds bp_layerforward to the loop it
// replaced, bit for bit: Backprop's two shapes, odd ones, zero rows of x,
// ReLU-like sparsity, -0 and Inf/NaN weights opposite zero inputs, an empty
// contraction — and y written over x or over w.
func TestLayerForwardMatchesNaiveLoop(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{32, 128, 256}, {32, 64, 128}, // Backprop's layers
		{3, 5, 7}, {1, 1, 1}, {5, 1, 9}, {4, 3, 70}, {2, 3, 0},
		{7, 7, 7}, // y may alias x (n = k) and w (m = k)
	}
	fills := []struct {
		name string
		fill func(rng *rand.Rand, x, w []float32, m, n, k int)
	}{
		{"dense", func(*rand.Rand, []float32, []float32, int, int, int) {}},
		{"zero-rows", func(_ *rand.Rand, x, _ []float32, m, _, k int) {
			for i := 0; i < m; i += 2 {
				clear(x[i*k : (i+1)*k])
			}
		}},
		{"sparse", func(rng *rand.Rand, x, _ []float32, _, _, _ int) {
			for i := range x {
				switch rng.Intn(4) {
				case 0, 1:
					x[i] = 0
				case 2:
					x[i] = float32(math.Copysign(0, -1))
				}
			}
		}},
		{"inf-nan-opposite-zero", func(_ *rand.Rand, x, w []float32, m, n, k int) {
			if k < 2 {
				return
			}
			for i := 0; i < m; i++ {
				x[i*k], x[i*k+1] = 0, 0
			}
			for j := 0; j < n; j++ {
				w[j], w[n+j] = float32(math.Inf(1)), float32(math.NaN())
			}
		}},
	}
	onContext(t, func(p *sim.Proc, dev *gpu.Device) {
		ctx := dev.CreateContext()
		if err := ctx.LoadModule(gpu.BuildCubin("bp_layerforward")); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(25))
		for _, s := range shapes {
			for _, f := range fills {
				name := fmt.Sprintf("%dx%dx%d %s", s.m, s.n, s.k, f.name)
				x, w := make([]float32, s.m*s.k), make([]float32, s.k*s.n)
				for i := range x {
					x[i] = rng.Float32()*2 - 1
				}
				for i := range w {
					w[i] = (rng.Float32()*2 - 1) / 8
				}
				f.fill(rng, x, w, s.m, s.n, s.k)
				want := naiveLayerForward(x, w, s.m, s.n, s.k)
				dims := []uint64{uint64(s.m), uint64(s.n), uint64(s.k)}
				outs := []struct {
					name string
					ptr  func(xp, wp uint64) uint64
				}{{"y", func(uint64, uint64) uint64 { return upload(t, p, ctx, make([]float32, s.m*s.n)) }}}
				if s.n == s.k {
					outs = append(outs, struct {
						name string
						ptr  func(xp, wp uint64) uint64
					}{"y over x", func(xp, _ uint64) uint64 { return xp }})
				}
				if s.m == s.k {
					outs = append(outs, struct {
						name string
						ptr  func(xp, wp uint64) uint64
					}{"y over w", func(_, wp uint64) uint64 { return wp }})
				}
				for _, o := range outs {
					xp, wp := upload(t, p, ctx, x), upload(t, p, ctx, w)
					yp := o.ptr(xp, wp)
					if err := ctx.Launch(p, "bp_layerforward", gpu.Dim{1, 1, 1}, append([]uint64{xp, wp, yp}, dims...)...); err != nil {
						t.Fatalf("%s, %s: %v", name, o.name, err)
					}
					if i, ok := sameBits(download(t, p, ctx, yp, len(want)), want); !ok {
						t.Fatalf("%s, %s: y[%d] differs from the naive loop", name, o.name, i)
					}
				}
			}
		}
	})
}

// hostileLaunch is one launch of a Rodinia kernel with an argument chosen
// against it: ptrs fresh 4 KiB buffers of 1.0s — data, when set, rewrites
// some — then the scalars.
type hostileLaunch struct {
	kernel  string
	why     string
	grid    gpu.Dim
	ptrs    int
	scalars []uint64
	data    map[int][]float32 // buffer index → its leading floats
}

func neg(v int64) uint64 { return uint64(v) }

var one = gpu.FloatBits(1)

// hugeGrid is a launch dimension of 2^(w-2) for a w-bit int — 2^62 on a
// 64-bit int — whose element byte count wraps.
const hugeGrid = 1 << (bits.UintSize - 2)

// hostileLaunches covers every Rodinia kernel. Each used to panic, spin for
// ~2^62 iterations or allocate from an unchecked count — or is pinned here
// because a dimension product is where that would start.
var hostileLaunches = []hostileLaunch{
	{kernel: "bfs_step", why: "negative edge offset", grid: gpu.Dim{4, 1, 1}, ptrs: 6, data: map[int][]float32{0: {-1}}},
	{kernel: "bfs_step", why: "negative edge count", grid: gpu.Dim{4, 1, 1}, ptrs: 6, data: map[int][]float32{0: {0, 1, 1, 1, -1}}},
	{kernel: "gaussian_fan1", why: "col -1", grid: gpu.Dim{1, 1, 1}, ptrs: 2, scalars: []uint64{4, neg(-1)}},
	{kernel: "gaussian_fan1", why: "col = size", grid: gpu.Dim{1, 1, 1}, ptrs: 2, scalars: []uint64{4, 4}},
	{kernel: "gaussian_fan1", why: "col 2^62", grid: gpu.Dim{1, 1, 1}, ptrs: 2, scalars: []uint64{4, 1 << 62}},
	{kernel: "gaussian_fan1", why: "empty matrix", grid: gpu.Dim{1, 1, 1}, ptrs: 2, scalars: []uint64{0, 0}},
	{kernel: "gaussian_fan2", why: "col -1", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{4, neg(-1)}},
	{kernel: "gaussian_fan2", why: "col = size", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{4, 4}},
	{kernel: "hotspot_step", why: "rows -1", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{neg(-1), 4}},
	{kernel: "hotspot_step", why: "rows·cols wraps", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{4, 1 << 62}},
	{kernel: "kmeans_assign", why: "dims 0 leaves k unbounded", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{8, 1 << 62, 0}},
	{kernel: "kmeans_assign", why: "dims -3", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{8, 2, neg(-3)}},
	{kernel: "kmeans_update", why: "dims 0 sizes make(k)", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{8, 1 << 40, 0}},
	{kernel: "kmeans_update", why: "k -1", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{8, neg(-1), 3}},
	{kernel: "nn_dist", why: "dims 0, n 2^62", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{1 << 62, 0}},
	{kernel: "nw_diag", why: "diag -1", grid: gpu.Dim{1, 1, 1}, ptrs: 2, scalars: []uint64{4, neg(-1), one}},
	{kernel: "nw_diag", why: "diag 1", grid: gpu.Dim{1, 1, 1}, ptrs: 2, scalars: []uint64{4, 1, one}},
	{kernel: "nw_diag", why: "diag 2·size+1", grid: gpu.Dim{1, 1, 1}, ptrs: 2, scalars: []uint64{4, 9, one}},
	{kernel: "nw_diag", why: "diag MinInt", grid: gpu.Dim{1, 1, 1}, ptrs: 2, scalars: []uint64{4, 1 << 63, one}},
	{kernel: "nw_diag", why: "size -1", grid: gpu.Dim{1, 1, 1}, ptrs: 2, scalars: []uint64{neg(-1), 3, one}},
	{kernel: "pathfinder_row", why: "row -1", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{8, neg(-1)}},
	{kernel: "pathfinder_row", why: "row+1 wraps", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{8, math.MaxInt64}},
	{kernel: "bp_layerforward", why: "M -1", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{neg(-1), 5, 7}},
	{kernel: "bp_layerforward", why: "M 2^62", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{1 << 62, 1, 1}},
	{kernel: "bp_adjust", why: "grid 2^(w-2)", grid: gpu.Dim{hugeGrid, 1, 1}, ptrs: 2, scalars: []uint64{one}},
	{kernel: "srad_step", why: "grid 2^(w-2)", grid: gpu.Dim{hugeGrid, 1, 1}, ptrs: 2, scalars: []uint64{1 << 62, one}},
	{kernel: "lud_diagonal", why: "offset -16", grid: gpu.Dim{1, 1, 1}, ptrs: 1, scalars: []uint64{16, neg(-16)}},
	{kernel: "lud_diagonal", why: "offset past size", grid: gpu.Dim{1, 1, 1}, ptrs: 1, scalars: []uint64{16, 17}},
	{kernel: "lud_diagonal", why: "offset+16 wraps", grid: gpu.Dim{1, 1, 1}, ptrs: 1, scalars: []uint64{16, math.MaxInt64 - 5}},
	{kernel: "lud_perimeter", why: "offset -1", grid: gpu.Dim{1, 1, 1}, ptrs: 1, scalars: []uint64{32, neg(-1)}},
	{kernel: "lud_perimeter", why: "offset+16 wraps", grid: gpu.Dim{1, 1, 1}, ptrs: 1, scalars: []uint64{32, math.MaxInt64}},
	{kernel: "lud_internal", why: "offset -16", grid: gpu.Dim{1, 1, 1}, ptrs: 1, scalars: []uint64{32, neg(-16)}},
	{kernel: "lud_internal", why: "offset past size", grid: gpu.Dim{1, 1, 1}, ptrs: 1, scalars: []uint64{32, 33}},
	{kernel: "srad_reduce", why: "grid 2^(w-2)", grid: gpu.Dim{hugeGrid, 1, 1}, ptrs: 2, scalars: []uint64{1 << 62}},
	{kernel: "sc_assign", why: "dims 0 leaves k unbounded", grid: gpu.Dim{1, 1, 1}, ptrs: 3, scalars: []uint64{8, 1 << 62, 0}},
}

// TestHostileArgumentsAreTypedErrors: a Rodinia kernel's launch arguments
// are the calling mEnclave's. Every hostile one in hostileLaunches is
// gpu.ErrInvalidPointer — never a panic, a runaway loop or an allocation the
// argument sized — and every Rodinia kernel has a row.
func TestHostileArgumentsAreTypedErrors(t *testing.T) {
	covered := make(map[string]bool)
	for _, h := range hostileLaunches {
		covered[h.kernel] = true
	}
	for _, b := range rodinia.AllExtended() {
		for _, name := range b.Kernels {
			if !covered[name] {
				t.Errorf("kernel %q (%s) has no hostile launch: add a row", name, b.Name)
			}
		}
	}
	ones := make([]float32, 1024)
	for i := range ones {
		ones[i] = 1
	}
	onContext(t, func(p *sim.Proc, dev *gpu.Device) {
		for _, h := range hostileLaunches {
			ctx := dev.CreateContext()
			if err := ctx.LoadModule(gpu.BuildCubin(h.kernel)); err != nil {
				t.Fatal(err)
			}
			args := make([]uint64, h.ptrs)
			for i := range args {
				buf := append([]float32(nil), ones...)
				copy(buf, h.data[i])
				args[i] = upload(t, p, ctx, buf)
			}
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = fmt.Errorf("panic: %v", v)
					}
				}()
				return ctx.Launch(p, h.kernel, h.grid, append(args, h.scalars...)...)
			}()
			if !errors.Is(err, gpu.ErrInvalidPointer) {
				t.Errorf("%s, %s: %v, want gpu.ErrInvalidPointer", h.kernel, h.why, err)
			}
			dev.DestroyContext(ctx)
		}
	})
}
