package gpu_test

import (
	"bytes"
	"errors"
	"testing"

	_ "cronus/internal/experiments" // registers the Fig 9 task kernel (and, through serve, serve_infer)
	"cronus/internal/gpu"
	"cronus/internal/sim"
)

// floatKernels is one valid launch of every kernel that views device memory as
// float32: the first ptrs arguments are device pointers, the rest scalars, and
// with every pointer a fresh 4 KiB buffer of 1.0s the launch succeeds.
var floatKernels = map[string]struct {
	grid    gpu.Dim
	ptrs    int
	scalars []uint64
}{
	"vec_add":    {gpu.Dim{8, 1, 1}, 3, nil},
	"saxpy":      {gpu.Dim{8, 1, 1}, 2, []uint64{gpu.FloatBits(2)}},
	"matmul":     {gpu.Dim{1, 1, 1}, 3, []uint64{3, 5, 7}},
	"relu":       {gpu.Dim{8, 1, 1}, 2, nil},
	"scale":      {gpu.Dim{8, 1, 1}, 1, []uint64{gpu.FloatBits(2)}},
	"sub":        {gpu.Dim{8, 1, 1}, 3, nil},
	"reduce_sum": {gpu.Dim{8, 1, 1}, 2, nil},

	"matmul_f":  {gpu.Dim{1, 1, 1}, 3, []uint64{3, 5, 7}},
	"matmul_tn": {gpu.Dim{1, 1, 1}, 3, []uint64{3, 5, 7}},
	"matmul_nt": {gpu.Dim{1, 1, 1}, 3, []uint64{3, 5, 7}},
	"im2col":    {gpu.Dim{8, 1, 1}, 2, []uint64{3}},
	"relu_bwd":  {gpu.Dim{8, 1, 1}, 3, nil},

	"bfs_step":        {gpu.Dim{4, 1, 1}, 6, nil}, // the index array's last entry, 1.0, is the edge count
	"gaussian_fan1":   {gpu.Dim{1, 1, 1}, 2, []uint64{4, 1}},
	"gaussian_fan2":   {gpu.Dim{1, 1, 1}, 3, []uint64{4, 1}},
	"hotspot_step":    {gpu.Dim{1, 1, 1}, 3, []uint64{4, 4}},
	"kmeans_assign":   {gpu.Dim{1, 1, 1}, 3, []uint64{8, 2, 3}},
	"kmeans_update":   {gpu.Dim{1, 1, 1}, 3, []uint64{8, 2, 3}},
	"nn_dist":         {gpu.Dim{1, 1, 1}, 3, []uint64{8, 3}},
	"nw_diag":         {gpu.Dim{1, 1, 1}, 2, []uint64{4, 3, gpu.FloatBits(1)}},
	"pathfinder_row":  {gpu.Dim{1, 1, 1}, 3, []uint64{8, 2}},
	"bp_layerforward": {gpu.Dim{1, 1, 1}, 3, []uint64{3, 5, 7}},
	"bp_adjust":       {gpu.Dim{8, 1, 1}, 2, []uint64{gpu.FloatBits(2)}},
	"srad_step":       {gpu.Dim{8, 1, 1}, 2, []uint64{8, gpu.FloatBits(0.05)}},
	"lud_diagonal":    {gpu.Dim{1, 1, 1}, 1, []uint64{16, 0}},
	"lud_perimeter":   {gpu.Dim{1, 1, 1}, 1, []uint64{32, 0}},
	"lud_internal":    {gpu.Dim{1, 1, 1}, 1, []uint64{32, 0}},
	"srad_reduce":     {gpu.Dim{8, 1, 1}, 2, []uint64{8}},
	"sc_assign":       {gpu.Dim{1, 1, 1}, 3, []uint64{8, 2, 3}},

	"fig9_matrix_task": {gpu.Dim{1, 1, 1}, 1, nil},
}

// byteKernels address device memory as bytes and have no alignment rule.
var byteKernels = map[string]bool{"serve_infer": true}

// shippedKernels is the registry as the imported kernel libraries' inits left
// it, taken before any test of this binary registers a kernel of its own.
var shippedKernels = gpu.KernelNames()

// TestMisalignedPointerFaultsEveryFloatKernel launches every registered float
// kernel once per pointer argument with that pointer moved 2 bytes off a
// float boundary: the launch returns ErrMisaligned — no panic, whichever
// argument it is — and has written nothing, to that buffer or the others.
func TestMisalignedPointerFaultsEveryFloatKernel(t *testing.T) {
	for _, name := range shippedKernels {
		if _, ok := floatKernels[name]; !ok && !byteKernels[name] {
			t.Errorf("kernel %q is registered but in neither table of this test: add its launch", name)
		}
	}
	const bufBytes = 4096
	ones := gpu.PackF32(func() []float32 {
		f := make([]float32, bufBytes/4)
		for i := range f {
			f[i] = 1
		}
		return f
	}())
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		dev := gpu.New(k, sim.DefaultCosts(), gpu.TuringConfig("g"))
		for name, l := range floatKernels {
			ctx := dev.CreateContext()
			if err := ctx.LoadModule(gpu.BuildCubin(name)); err != nil {
				t.Error(err)
				continue
			}
			bufs := make([]uint64, l.ptrs)
			for i := range bufs {
				var err error
				if bufs[i], err = ctx.MemAlloc(bufBytes); err != nil {
					t.Fatal(err)
				}
				if err := ctx.HtoD(p, bufs[i], ones); err != nil {
					t.Fatal(err)
				}
			}
			launch := func(off int) error {
				args := append([]uint64(nil), bufs...)
				if off >= 0 {
					args[off] += 2
				}
				return ctx.Launch(p, name, l.grid, append(args, l.scalars...)...)
			}
			for bad := range bufs {
				if err := launch(bad); !errors.Is(err, gpu.ErrMisaligned) {
					t.Errorf("%s with pointer %d misaligned: %v, want ErrMisaligned", name, bad, err)
				}
				for i, ptr := range bufs {
					got := make([]byte, bufBytes)
					if err := ctx.DtoH(p, got, ptr); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, ones) {
						t.Errorf("%s with pointer %d misaligned wrote to buffer %d before faulting", name, bad, i)
					}
				}
			}
			// The control: the same launch on aligned pointers is valid.
			if err := launch(-1); err != nil {
				t.Errorf("%s on aligned pointers: %v", name, err)
			}
			dev.DestroyContext(ctx)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
