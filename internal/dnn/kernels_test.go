package dnn_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/dnn"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/workload"
)

// kernelRig is one bare GPU context with every matmul variant and the
// training kernels loaded, driven from inside a one-process simulation.
type kernelRig struct {
	p   *sim.Proc
	ctx *gpu.Context
}

// newTestGPU is the unprotected device the baselines and the bare-context
// tests run on.
func newTestGPU(k *sim.Kernel, costs *sim.CostModel) *gpu.Device {
	return gpu.New(k, costs, gpu.TuringConfig("g"))
}

func withKernelRig(t testing.TB, body func(r *kernelRig)) {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		dev := newTestGPU(k, sim.DefaultCosts())
		ctx := dev.CreateContext()
		if err := ctx.LoadModule(gpu.BuildCubin("matmul", "matmul_f", "matmul_tn", "matmul_nt", "im2col", "relu", "relu_bwd", "saxpy")); err != nil {
			t.Error(err)
			return
		}
		body(&kernelRig{p: p, ctx: ctx})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// upload allocates a device buffer holding xs.
func (r *kernelRig) upload(t testing.TB, xs []float32) uint64 {
	t.Helper()
	ptr, err := r.ctx.MemAlloc(uint64(4 * max(len(xs), 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ctx.HtoD(r.p, ptr, gpu.Bytes(xs)); err != nil {
		t.Fatal(err)
	}
	return ptr
}

func (r *kernelRig) download(t testing.TB, ptr uint64, n int) []float32 {
	t.Helper()
	raw := make([]byte, 4*n)
	if err := r.ctx.DtoH(r.p, raw, ptr); err != nil {
		t.Fatal(err)
	}
	return gpu.UnpackF32(raw)
}

// naiveMatmul is the definition the kernels are held to: every C[i,j] adds
// its K products in ascending t, skipping zero A elements (the skip is part
// of the contract — it is what keeps 0·Inf out of C). aT: A stored K×M;
// bT: B stored N×K.
func naiveMatmul(a, b []float32, m, n, k int, aT, bT bool) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for t := 0; t < k; t++ {
				av, bv := a[i*k+t], b[t*n+j]
				if aT {
					av = a[t*m+i]
				}
				if bT {
					bv = b[j*k+t]
				}
				if av == 0 {
					continue
				}
				acc += av * bv
			}
			c[i*n+j] = acc
		}
	}
	return c
}

// operands is one matmul's inputs as a variant stores them: A is K×M when aT,
// B is N×K when bT.
type operands struct {
	a, b    []float32
	m, n, k int
	aT, bT  bool
}

// A returns the element of op(A) at row i, column t.
func (o *operands) A(i, t int) *float32 {
	if o.aT {
		return &o.a[t*o.m+i]
	}
	return &o.a[i*o.k+t]
}

// B returns the element of op(B) at row t, column j.
func (o *operands) B(t, j int) *float32 {
	if o.bT {
		return &o.b[j*o.k+t]
	}
	return &o.b[t*o.n+j]
}

func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// TestMatmulVariantsMatchNaive is the differential, bit-exact check of the one
// matmul body behind "matmul", "matmul_f", "matmul_tn" and "matmul_nt".
func TestMatmulVariantsMatchNaive(t *testing.T) {
	variants := []struct {
		name   string
		aT, bT bool
	}{{"matmul", false, false}, {"matmul_f", false, false}, {"matmul_tn", true, false}, {"matmul_nt", false, true}}
	shapes := []struct{ m, n, k int }{
		{3, 4, 5},    // N=4: one unrolled group, no tail
		{1, 7, 9},    // M=1
		{6, 5, 1},    // K=1
		{5, 1, 8},    // N=1: tail only
		{7, 7, 7},    // square: C may alias A
		{16, 33, 17}, // K not a multiple of the group of four
		{144, 6, 25}, // LeNet conv1 at batch 1
		{10, 5, 9},   // with "row-counts": row i holds i non-zero terms, 0…9
		{3, 9, 70},   // a dense row outgrows one 64-term stretch
		{5, 261, 3},  // matmul_nt's B (N×K) crosses a 256-row transpose block
		{3, 2, 300},  // so does matmul_tn's A (K×M)
	}
	fills := []struct {
		name string
		fill func(rng *rand.Rand, o *operands)
	}{
		{"dense", func(*rand.Rand, *operands) {}},
		{"sparse-a", func(rng *rand.Rand, o *operands) {
			for i := range o.a {
				if rng.Intn(2) == 0 {
					o.a[i] = 0
				}
			}
		}},
		{"subnormal", func(rng *rand.Rand, o *operands) {
			o.a[rng.Intn(len(o.a))] = 3e-41
			o.b[rng.Intn(len(o.b))] = -7e-42
			for i := range o.b {
				if i%3 == 0 {
					o.b[i] *= 1e-36 // products with a land in the subnormal range
				}
			}
			for i := range o.a {
				if i%2 == 0 {
					o.a[i] *= 1e-4
				}
			}
		}},
		{"zero-times-inf", func(rng *rand.Rand, o *operands) {
			// An all-zero A meets an Inf in B: C is +0, never NaN.
			for i := range o.a {
				o.a[i] = 0
			}
			o.b[rng.Intn(len(o.b))] = float32(math.Inf(1))
		}},
		{"row-counts", func(rng *rand.Rand, o *operands) {
			// Row i keeps i mod (K+1) of its terms, wherever they fall:
			// every remainder of the group of four, from no term to all.
			for i := 0; i < o.m; i++ {
				for _, t := range rng.Perm(o.k)[i%(o.k+1):] {
					*o.A(i, t) = 0
				}
			}
		}},
		{"inf-nan-in-group", func(_ *rand.Rand, o *operands) {
			// Columns 1 and 2 of an otherwise dense A are zero, and the B
			// rows opposite them all Inf and all NaN: the two terms sit
			// inside what would be the first group of four, and skipping
			// them is what keeps every C finite.
			for i := 0; i < o.m; i++ {
				*o.A(i, 1%o.k), *o.A(i, 2%o.k) = 0, 0
			}
			for j := 0; j < o.n; j++ {
				*o.B(1%o.k, j), *o.B(2%o.k, j) = float32(math.Inf(-1)), float32(math.NaN())
			}
		}},
	}
	withKernelRig(t, func(r *kernelRig) {
		rng := rand.New(rand.NewSource(18))
		for _, v := range variants {
			for _, s := range shapes {
				for _, f := range fills {
					a, b := make([]float32, s.m*s.k), make([]float32, s.k*s.n)
					for i := range a {
						a[i] = rng.Float32()*2 - 1
					}
					for i := range b {
						b[i] = rng.Float32()*2 - 1
					}
					f.fill(rng, &operands{a, b, s.m, s.n, s.k, v.aT, v.bT})
					want := naiveMatmul(a, b, s.m, s.n, s.k, v.aT, v.bT)
					if f.name == "inf-nan-in-group" {
						for i, c := range want {
							if math.IsNaN(float64(c)) || math.IsInf(float64(c), 0) {
								t.Fatalf("%s %dx%dx%d: the oracle's C[%d] = %v", v.name, s.m, s.n, s.k, i, c)
							}
						}
					}
					ap, bp := r.upload(t, a), r.upload(t, b)
					cp := r.upload(t, make([]float32, s.m*s.n))
					name := fmt.Sprintf("%s %dx%dx%d %s", v.name, s.m, s.n, s.k, f.name)
					dims := []uint64{uint64(s.m), uint64(s.n), uint64(s.k)}
					if err := r.ctx.Launch(r.p, v.name, gpu.Dim{1, 1, 1}, append([]uint64{ap, bp, cp}, dims...)...); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if i, ok := sameBits(r.download(t, cp, len(want)), want); !ok {
						t.Fatalf("%s: C[%d] differs from the naive loop", name, i)
					}
					if s.n == s.k {
						// In place: C written over A (same element count).
						if err := r.ctx.Launch(r.p, v.name, gpu.Dim{1, 1, 1}, append([]uint64{ap, bp, ap}, dims...)...); err != nil {
							t.Fatalf("%s in place: %v", name, err)
						}
						if i, ok := sameBits(r.download(t, ap, len(want)), want); !ok {
							t.Fatalf("%s: C aliasing A differs at %d", name, i)
						}
					}
				}
			}
		}
	})
}

// TestIm2colMatchesDefinition holds the block-copy im2col to dst[i] =
// src[i mod srcN].
func TestIm2colMatchesDefinition(t *testing.T) {
	withKernelRig(t, func(r *kernelRig) {
		rng := rand.New(rand.NewSource(19))
		for _, c := range []struct{ srcN, dstN int }{{10, 3}, {10, 10}, {10, 11}, {10, 47}, {1, 9}, {7, 1}, {0, 5}, {-3, 5}} {
			src := make([]float32, max(c.srcN, 1))
			for i := range src {
				src[i] = rng.Float32()
			}
			dst := make([]float32, c.dstN)
			for i := range dst {
				dst[i] = -1
			}
			sp, dp := r.upload(t, src), r.upload(t, dst)
			if err := r.ctx.Launch(r.p, "im2col", gpu.Dim{c.dstN, 1, 1}, sp, dp, uint64(int64(c.srcN))); err != nil {
				t.Fatalf("srcN %d dstN %d: %v", c.srcN, c.dstN, err)
			}
			want := dst // srcN <= 0 leaves dst alone
			if c.srcN > 0 {
				want = make([]float32, c.dstN)
				for i := range want {
					want[i] = src[i%c.srcN]
				}
			}
			if i, ok := sameBits(r.download(t, dp, c.dstN), want); !ok {
				t.Fatalf("srcN %d dstN %d: dst[%d] differs from src[i mod srcN]", c.srcN, c.dstN, i)
			}
		}
	})
}

// TestIm2colRejectsWrappingGrid: a grid whose byte count wraps to zero used to
// make im2col return nil having copied nothing. The element count is checked
// against the allocation now, as is a source length that does not fit it.
func TestIm2colRejectsWrappingGrid(t *testing.T) {
	withKernelRig(t, func(r *kernelRig) {
		sp, dp := r.upload(t, []float32{1, 2, 3}), r.upload(t, []float32{-1, -1, -1, -1})
		for _, c := range []struct {
			grid gpu.Dim
			srcN uint64
		}{{gpu.Dim{1 << (bits.UintSize - 2), 1, 1}, 3}, {gpu.Dim{1 << (bits.UintSize/2 - 1), 1 << (bits.UintSize/2 - 1), 1}, 3}, {gpu.Dim{4, 1, 1}, 1 << 62}, {gpu.Dim{5, 1, 1}, 3}} {
			if err := r.ctx.Launch(r.p, "im2col", c.grid, sp, dp, c.srcN); !errors.Is(err, gpu.ErrInvalidPointer) {
				t.Errorf("grid %v srcN %d: %v, want ErrInvalidPointer", c.grid, c.srcN, err)
			}
		}
		if i, ok := sameBits(r.download(t, dp, 4), []float32{-1, -1, -1, -1}); !ok {
			t.Errorf("a rejected launch wrote dst[%d]", i)
		}
	})
}

// TestKernelLaunchAllocationBudget pins what a warm launch of the training
// kernels allocates: the Exec and the launch bookkeeping, never a buffer
// sized by the payload (a 64×64 operand is 16 KiB). Holds under -race.
func TestKernelLaunchAllocationBudget(t *testing.T) {
	const (
		dim         = 64
		elems       = dim * dim
		maxAllocs   = 3   // per launch: the Exec, its argument slice, the SM-engine job
		budgetBytes = 256 // per launch; measured 104-136 B
	)
	withKernelRig(t, func(r *kernelRig) {
		buf := make([]float32, elems)
		for i := range buf {
			buf[i] = float32(i%13) - 6
		}
		a, b, c := r.upload(t, buf), r.upload(t, buf), r.upload(t, buf)
		mm := func(name string) func() error {
			return func() error { return r.ctx.Launch(r.p, name, gpu.Dim{1, 1, 1}, a, b, c, dim, dim, dim) }
		}
		grid := gpu.Dim{elems, 1, 1}
		launches := []struct {
			name string
			call func() error
		}{
			{"matmul", mm("matmul")}, {"matmul_f", mm("matmul_f")}, {"matmul_tn", mm("matmul_tn")}, {"matmul_nt", mm("matmul_nt")},
			{"im2col", func() error { return r.ctx.Launch(r.p, "im2col", grid, a, c, elems/2) }},
			{"relu", func() error { return r.ctx.Launch(r.p, "relu", grid, a, c) }},
			{"relu_bwd", func() error { return r.ctx.Launch(r.p, "relu_bwd", grid, a, b, c) }},
			{"saxpy", func() error { return r.ctx.Launch(r.p, "saxpy", grid, a, c, gpu.FloatBits(1e-6)) }},
		}
		for _, l := range launches {
			var fail error
			call := func() {
				if err := l.call(); err != nil {
					fail = err
				}
			}
			call() // warm: the device scratch reaches its size
			allocs := testing.AllocsPerRun(50, call)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				call()
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / 50
			if fail != nil {
				t.Fatalf("%s: %v", l.name, fail)
			}
			t.Logf("%s: %.0f allocs, %.0f B per launch", l.name, allocs, bytes)
			if allocs > maxAllocs || bytes > budgetBytes {
				t.Errorf("%s allocates %.0f objects / %.0f B per launch, budget %d / %d", l.name, allocs, bytes, maxAllocs, budgetBytes)
			}
		}
	})
}

// onSystem runs body against one of the four evaluated systems' CUDA surface
// in a fresh simulation (the same four stacks experiments.Figure8 compares),
// with register installing the training kernels before any module loads.
func onSystem(t testing.TB, system baseline.System, register func(), body func(p *sim.Proc, ops accel.CUDA) error) {
	t.Helper()
	if system == baseline.CRONUS {
		err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			register()
			s, err := pl.NewSession(p, "train")
			if err != nil {
				return err
			}
			conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: dnn.Cubin(), RingPages: 65})
			if err != nil {
				return err
			}
			defer conn.Close(p)
			return body(p, conn)
		})
		if err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		return
	}
	k := sim.NewKernel()
	var fail error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		costs := sim.DefaultCosts()
		dev := newTestGPU(k, costs)
		register()
		var ops accel.CUDA
		switch system {
		case baseline.Native:
			ops, fail = baseline.NewNativeCUDA(dev, costs, dnn.Cubin())
		case baseline.TrustZone:
			ops, fail = baseline.NewTrustZoneCUDA(dev, costs, dnn.Cubin())
		case baseline.HIX:
			ops, fail = baseline.NewHIXCUDA(dev, costs, dnn.Cubin())
		}
		if fail == nil {
			fail = body(p, ops)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("%s: %v", system, err)
	}
	if fail != nil {
		t.Fatalf("%s: %v", system, fail)
	}
}

// TestVirtualTimeIgnoresValues is the property the functional-value changes
// lean on: cost models read shapes, never values. The LeNet-2 row of Fig 8
// (2 iterations, batch 16) takes the same virtual time on each of the four
// systems with the shipped weights, with weights from another filler seed,
// and with all-zero input pixels (a filler pinned to the middle of its
// range). The rodinia, vtabench and tvm packages hold Fig 7 and Fig 10 to
// the same property.
func TestVirtualTimeIgnoresValues(t *testing.T) {
	variants := []struct {
		name  string
		apply func(tr *dnn.Trainer, ck *dnn.Checkpoint)
	}{
		{"shipped init", func(*dnn.Trainer, *dnn.Checkpoint) {}},
		{"other weight seed", func(_ *dnn.Trainer, ck *dnn.Checkpoint) {
			f := workload.NewFiller(1234)
			for _, w := range ck.Weights {
				f.Float32s(w, -0.05, 0.05)
			}
		}},
		{"zero inputs", func(tr *dnn.Trainer, _ *dnn.Checkpoint) { tr.ZeroInputs() }},
	}
	for _, system := range []baseline.System{baseline.Native, baseline.TrustZone, baseline.HIX, baseline.CRONUS} {
		var times []sim.Duration
		var losses []float32
		for _, v := range variants {
			onSystem(t, system, dnn.RegisterKernels, func(p *sim.Proc, ops accel.CUDA) error {
				tr, err := dnn.NewTrainer(p, ops, dnn.LeNet2(), 16)
				if err != nil {
					return err
				}
				// Every variant round-trips the weights, so the three runs
				// issue the same stream before the timed steps as well.
				ck, err := tr.Checkpoint(p)
				if err != nil {
					return err
				}
				v.apply(tr, ck)
				if err := tr.Restore(p, ck); err != nil {
					return err
				}
				start := p.Now()
				var loss float32
				for i := 0; i < 2; i++ {
					if loss, err = tr.Step(p); err != nil {
						return err
					}
				}
				times = append(times, sim.Duration(p.Now()-start))
				losses = append(losses, loss)
				return nil
			})
		}
		for i, v := range variants {
			if times[i] != times[0] {
				t.Errorf("%s, %s: %v virtual, shipped init takes %v", system, v.name, times[i], times[0])
			}
			if i > 0 && losses[i] == losses[0] {
				t.Errorf("%s, %s: loss %v equals the shipped run's — the variant changed no value", system, v.name, losses[i])
			}
		}
		t.Logf("%s: %v for all of %d value variants (losses %v)", system, times[0], len(variants), losses)
	}
}

// denseNetDeadLayer is the first DenseNet layer whose activations are all
// zero: d38.3x3. The scaled-down dense blocks chain 4-channel ReLU layers
// without the real network's concatenation, and by this layer every one of
// its 64 outputs at batch 16 is negative before the ReLU under the filler's
// seed-42 init (the math/rand draws it replaced died earlier, at d11.3x3).
// Nothing after it, and no gradient before it, is alive; reviving it needs a
// different launch stream (ROADMAP item 4 note).
const denseNetDeadLayer = 81

// TestTrainingNumericsAlive checks that the functional values are numbers a
// CPU computes at full speed: after 2 steps at batch 16 no activation,
// activation gradient or weight gradient is subnormal on any model, and every
// layer of LeNet-2, ResNet50 and VGG16 still receives a non-zero weight
// gradient (DenseNet: live activations up to its documented dead layer).
func TestTrainingNumericsAlive(t *testing.T) {
	for _, model := range dnn.TrainingModels() {
		t.Run(model.Name, func(t *testing.T) {
			onSystem(t, baseline.Native, dnn.RegisterKernels, func(p *sim.Proc, ops accel.CUDA) error {
				tr, err := dnn.NewTrainer(p, ops, model, 16)
				if err != nil {
					return err
				}
				for i := 0; i < 2; i++ {
					if _, err := tr.Step(p); err != nil {
						return err
					}
				}
				// nonZero downloads a buffer, fails on a subnormal and
				// counts the non-zero elements.
				nonZero := func(layer, what string, ptr uint64, n int) int {
					raw, err := ops.DtoH(p, ptr, 4*n)
					if err != nil {
						t.Fatal(err)
					}
					nz := 0
					for i, v := range gpu.UnpackF32(raw) {
						if v != 0 {
							nz++
							if a := math.Abs(float64(v)); a < 0x1p-126 {
								t.Fatalf("%s %s[%d] = %g is subnormal", layer, what, i, v)
							}
						}
					}
					return nz
				}
				for l, layer := range model.Layers {
					b := tr.Buffers(l)
					out := nonZero(layer.Name, "out", b.Out, b.OutLen)
					nonZero(layer.Name, "dout", b.Dout, b.OutLen)
					dw := nonZero(layer.Name, "dw", b.Dw, b.WLen)
					if model.Name != "DenseNet" {
						if dw == 0 {
							t.Errorf("layer %d %s: weight gradient is all zero", l, layer.Name)
						}
					} else if l < denseNetDeadLayer && out == 0 {
						t.Errorf("layer %d %s: activations all zero before the documented dead layer %d", l, layer.Name, denseNetDeadLayer)
					} else if l == denseNetDeadLayer && (out != 0 || layer.Name != "d38.3x3") {
						t.Errorf("layer %d %s has %d live activations: the DenseNet chain no longer dies at d38.3x3, update the note", l, layer.Name, out)
					}
				}
				return nil
			})
		})
	}
}

// registerOldKernels installs the training kernels with matmul_f/tn/nt and
// im2col replaced by the closures this package shipped before they were
// rebuilt on gpu.MatmulFunc, kept verbatim as the reference.
func registerOldKernels() {
	dnn.RegisterKernels()
	free := func(float64, gpu.Dim, []uint64) gpu.LaunchCost { return gpu.LaunchCost{Work: 1, SMDemand: 1} }
	mm := func(name string, aT, bT bool) {
		gpu.Register(&gpu.Kernel{Name: name, Cost: free, Func: func(e *gpu.Exec) error {
			m, n, k := int(e.Arg(3)), int(e.Arg(4)), int(e.Arg(5))
			ab, err := e.Bytes(e.Arg(0), m*k*4)
			if err != nil {
				return err
			}
			bb, err := e.Bytes(e.Arg(1), k*n*4)
			if err != nil {
				return err
			}
			cb, err := e.Bytes(e.Arg(2), m*n*4)
			if err != nil {
				return err
			}
			a, b := gpu.UnpackF32(ab), gpu.UnpackF32(bb)
			c := make([]float32, m*n)
			for i := 0; i < m; i++ {
				for t := 0; t < k; t++ {
					var av float32
					if aT {
						av = a[t*m+i] // A is stored K×M
					} else {
						av = a[i*k+t]
					}
					if av == 0 {
						continue
					}
					ci := i * n
					if bT {
						// B stored N×K: walk the K-th column.
						for j := 0; j < n; j++ {
							c[ci+j] += av * b[j*k+t]
						}
					} else {
						br := b[t*n : (t+1)*n]
						for j := 0; j < n; j++ {
							c[ci+j] += av * br[j]
						}
					}
				}
			}
			copy(cb, gpu.Bytes(c))
			return nil
		}})
	}
	mm("matmul_f", false, false)
	mm("matmul_tn", true, false)
	mm("matmul_nt", false, true)
	gpu.Register(&gpu.Kernel{Name: "im2col", Cost: free, Func: func(e *gpu.Exec) error {
		dstN := e.Grid.Elems()
		srcN := int(e.Arg(2))
		if srcN <= 0 {
			return nil
		}
		sb, err := e.Bytes(e.Arg(0), srcN*4)
		if err != nil {
			return err
		}
		db, err := e.Bytes(e.Arg(1), dstN*4)
		if err != nil {
			return err
		}
		src, dst := oldF32(sb), oldF32(db)
		for i := 0; i < dstN; i++ {
			dst.Set(i, src.Get(i%srcN))
		}
		return nil
	}})
}

// oldF32 is the per-element byte accessor gpu.F32 was when those closures
// shipped; only they use it.
type oldF32 []byte

func (f oldF32) Get(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(f[i*4:]))
}

func (f oldF32) Set(i int, v float32) {
	binary.LittleEndian.PutUint32(f[i*4:], math.Float32bits(v))
}

// TestKernelRewriteKeepsGradientBits trains each model for 3 steps twice —
// once on the old kernels, once on the shipped ones, same init — and requires
// every weight-gradient buffer to come out bit-identical: the rewrite changed
// speed, not one value.
func TestKernelRewriteKeepsGradientBits(t *testing.T) {
	grads := func(model *dnn.Model, register func()) (all [][]float32) {
		onSystem(t, baseline.Native, register, func(p *sim.Proc, ops accel.CUDA) error {
			tr, err := dnn.NewTrainer(p, ops, model, 16)
			if err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				if _, err := tr.Step(p); err != nil {
					return err
				}
			}
			for l := range model.Layers {
				b := tr.Buffers(l)
				raw, err := ops.DtoH(p, b.Dw, 4*b.WLen)
				if err != nil {
					return err
				}
				all = append(all, gpu.UnpackF32(raw))
			}
			return nil
		})
		return all
	}
	for _, model := range dnn.TrainingModels() {
		old := grads(model, registerOldKernels)
		shipped := grads(model, dnn.RegisterKernels) // also leaves the registry as shipped
		alive := 0
		for l := range old {
			if i, ok := sameBits(shipped[l], old[l]); !ok {
				t.Fatalf("%s layer %d %s: dw[%d] differs between the old and the shipped kernels", model.Name, l, model.Layers[l].Name, i)
			}
			for _, v := range old[l] {
				if v != 0 {
					alive++
					break
				}
			}
		}
		t.Logf("%s: %d gradient buffers bit-identical, %d of them non-zero", model.Name, len(old), alive)
	}
}

// BenchmarkTrainStep is the host cost of one training iteration (native ops,
// batch 16) per model: the functional kernels' budget, free of any TEE
// plumbing.
func BenchmarkTrainStep(b *testing.B) {
	for _, model := range dnn.TrainingModels() {
		b.Run(model.Name, func(b *testing.B) {
			b.ReportAllocs()
			onSystem(b, baseline.Native, dnn.RegisterKernels, func(p *sim.Proc, ops accel.CUDA) error {
				tr, err := dnn.NewTrainer(p, ops, model, 16)
				if err != nil {
					return err
				}
				if _, err := tr.Step(p); err != nil { // warm: device scratch sized
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := tr.Step(p); err != nil {
						return err
					}
				}
				b.StopTimer()
				return nil
			})
		})
	}
}

// reluInputs is 64 Ki floats: every special a sign test can trip on — ±0,
// ±Inf, NaNs of both signs and payloads, the smallest and largest subnormals
// — then values of random sign, half of them random bit patterns.
func reluInputs(seed int64) []float32 {
	x := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1, math.MaxFloat32, -math.MaxFloat32}
	for _, b := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff} {
		x = append(x, math.Float32frombits(b))
	}
	rng := rand.New(rand.NewSource(seed))
	for len(x) < 1<<16 {
		if len(x)%2 == 0 {
			x = append(x, rng.Float32()*2-1)
		} else {
			x = append(x, math.Float32frombits(rng.Uint32()))
		}
	}
	return x
}

// TestReLUKernelsMatchBranchyLoops holds relu and relu_bwd to the branches
// they replaced, bit for bit, out of place and in place as the trainer runs
// them: relu keeps -0 and every NaN and zeroes -Inf and negative
// subnormals; relu_bwd passes dy, NaN payloads included, only where x > 0.
func TestReLUKernelsMatchBranchyLoops(t *testing.T) {
	x, dy := reluInputs(27), reluInputs(28)
	wantY, wantDx := make([]float32, len(x)), make([]float32, len(x))
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		wantY[i] = v
		if x[i] > 0 {
			wantDx[i] = dy[i]
		} else {
			wantDx[i] = 0
		}
	}
	withKernelRig(t, func(r *kernelRig) {
		grid := gpu.Dim{len(x), 1, 1}
		xp, dyp, out := r.upload(t, x), r.upload(t, dy), r.upload(t, make([]float32, len(x)))
		for _, c := range []struct {
			name, how string
			args      []uint64
			dst       uint64
			want      []float32
		}{
			{"relu_bwd", "out of place", []uint64{xp, dyp, out}, out, wantDx},
			{"relu_bwd", "dx over dy", []uint64{xp, dyp, dyp}, dyp, wantDx},
			{"relu", "out of place", []uint64{xp, out}, out, wantY},
			{"relu", "y over x", []uint64{xp, xp}, xp, wantY},
		} {
			if err := r.ctx.Launch(r.p, c.name, grid, c.args...); err != nil {
				t.Fatal(err)
			}
			if i, ok := sameBits(r.download(t, c.dst, len(x)), c.want); !ok {
				t.Fatalf("%s %s: element %d differs from the branch", c.name, c.how, i)
			}
		}
	})
}

// benchActivation launches one 64 Ki-element activation kernel per op on
// inputs of random sign; the outputs are separate buffers, so the signs stay
// random from one op to the next.
func benchActivation(b *testing.B, name string) {
	withKernelRig(b, func(r *kernelRig) {
		x, dy := r.upload(b, reluInputs(29)), r.upload(b, reluInputs(30))
		out := r.upload(b, make([]float32, 1<<16))
		args := []uint64{x, out}
		if name == "relu_bwd" {
			args = []uint64{x, dy, out}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.ctx.Launch(r.p, name, gpu.Dim{1 << 16, 1, 1}, args...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(1<<16), "ns/elem")
	})
}

// BenchmarkReLU is the forward activation's host cost.
func BenchmarkReLU(b *testing.B) { benchActivation(b, "relu") }

// BenchmarkReLUBwd is the activation gradient's host cost.
func BenchmarkReLUBwd(b *testing.B) { benchActivation(b, "relu_bwd") }
