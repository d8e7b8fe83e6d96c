package rodinia

import (
	"math"

	"cronus/internal/accel"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/workload"
)

// This file adds the remaining Rodinia workloads the paper's Figure 7
// covers beyond the core eight: lud (blocked LU decomposition — three tiny
// launches per block step), srad (speckle-reducing diffusion — two launches
// per iteration with a reduction readback), and streamcluster (assign +
// open-center rounds with host-side decisions each round).

// registerExtendedKernels installs the kernels of the extra benchmarks.
func registerExtendedKernels() {
	// lud_diagonal: factorize the diagonal block. args: a, size, offset.
	gpu.Register(&gpu.Kernel{
		Name: "lud_diagonal",
		Cost: rodCost(18*sim.Microsecond, 2, 0.15),
		Func: func(e *gpu.Exec) error {
			size := e.Int(1)
			off := e.Int(2)
			a, err := e.F32(e.Arg(0), size, size)
			if err != nil {
				return err
			}
			if off < 0 || off > size {
				return badArg("lud_diagonal", "offset", off)
			}
			b := blockDim
			if off+b > size {
				return nil
			}
			at := func(r, c int) int { return (off+r)*size + off + c }
			for i := 0; i < b; i++ {
				piv := a[at(i, i)]
				if piv == 0 {
					piv = 1e-6
				}
				for r := i + 1; r < b; r++ {
					m := a[at(r, i)] / piv
					a[at(r, i)] = m
					for c := i + 1; c < b; c++ {
						a[at(r, c)] -= float32(m * a[at(i, c)])
					}
				}
			}
			return nil
		},
	})

	// lud_perimeter: update the row/column strips. args: a, size, offset.
	gpu.Register(&gpu.Kernel{
		Name: "lud_perimeter",
		Cost: rodCost(35*sim.Microsecond, 4, 0.4),
		Func: func(e *gpu.Exec) error {
			size := e.Int(1)
			off := e.Int(2)
			a, err := e.F32(e.Arg(0), size, size)
			if err != nil {
				return err
			}
			if off < 0 || off > size {
				return badArg("lud_perimeter", "offset", off)
			}
			b := blockDim
			// Row strip: triangular solve against the diagonal block.
			for cb := off + b; cb < size; cb += b {
				for i := 0; i < b; i++ {
					for c := 0; c < b; c++ {
						var s float32
						for k := 0; k < i; k++ {
							s += float32(a[(off+i)*size+off+k] * a[(off+k)*size+cb+c])
						}
						a[(off+i)*size+cb+c] -= s
					}
				}
			}
			return nil
		},
	})

	// lud_internal: trailing submatrix update. args: a, size, offset.
	gpu.Register(&gpu.Kernel{
		Name: "lud_internal",
		Cost: rodCost(80*sim.Microsecond, 8, 0.9),
		Func: func(e *gpu.Exec) error {
			size := e.Int(1)
			off := e.Int(2)
			a, err := e.F32(e.Arg(0), size, size)
			if err != nil {
				return err
			}
			if off < 0 || off > size {
				return badArg("lud_internal", "offset", off)
			}
			b := blockDim
			for r := off + b; r < size; r++ {
				for c := off + b; c < size; c++ {
					var s float32
					for k := 0; k < b; k++ {
						s += float32(a[r*size+off+k] * a[(off+k)*size+c])
					}
					a[r*size+c] -= float32(0.001 * s)
				}
			}
			return nil
		},
	})

	// srad_reduce: mean/variance reduction. args: img, stats, n.
	gpu.Register(&gpu.Kernel{
		Name: "srad_reduce",
		Cost: rodCost(45*sim.Microsecond, 6, 0.6),
		Func: func(e *gpu.Exec) error {
			n := e.Grid.Elems()
			fi, err := e.F32(e.Arg(0), n)
			if err != nil {
				return err
			}
			fs, err := e.F32(e.Arg(1), 2)
			if err != nil {
				return err
			}
			var sum, sq float64
			for _, f := range fi {
				v := float64(f)
				sum += v
				sq += float64(v * v)
			}
			fs[0] = float32(sum / float64(n))
			fs[1] = float32(sq / float64(n))
			return nil
		},
	})

	// sc_assign: streamcluster point-to-center assignment with cost.
	// args: pts, centers, cost, n, k, dims.
	gpu.Register(&gpu.Kernel{
		Name: "sc_assign",
		Cost: rodCost(150*sim.Microsecond, 35, 0.85),
		Func: func(e *gpu.Exec) error {
			n, k, dims := e.Int(3), e.Int(4), e.Int(5)
			if dims < 1 { // a k×0 view bounds no k
				return badArg("sc_assign", "dims", dims)
			}
			fp, err := e.F32(e.Arg(0), n, dims)
			if err != nil {
				return err
			}
			fc, err := e.F32(e.Arg(1), k, dims)
			if err != nil {
				return err
			}
			cost, err := e.F32(e.Arg(2), 1)
			if err != nil {
				return err
			}
			var total float64
			for i := 0; i < n; i++ {
				best := math.MaxFloat64
				for c := 0; c < k; c++ {
					var d float64
					for j := 0; j < dims; j++ {
						diff := float64(fp[i*dims+j] - fc[c*dims+j])
						d += float64(diff * diff)
					}
					if d < best {
						best = d
					}
				}
				total += best
			}
			cost[0] = float32(total)
			return nil
		},
	})
}

const blockDim = 16

// LUD: blocked LU decomposition — three launches per block step, a
// launch-intensive workload like gaussian.
func LUD() Benchmark {
	return Benchmark{
		Name:    "lud",
		Kernels: []string{"lud_diagonal", "lud_perimeter", "lud_internal"},
		seed:    71,
		run: func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error {
			const size = 128
			a, err := upload(p, ops, f, size*size)
			if err != nil {
				return err
			}
			for off := 0; off < size; off += blockDim {
				if err := ops.Launch(p, "lud_diagonal", gpu.Dim{blockDim, 1, 1}, a, size, uint64(off)); err != nil {
					return err
				}
				if off+blockDim < size {
					if err := ops.Launch(p, "lud_perimeter", gpu.Dim{size - off, 1, 1}, a, size, uint64(off)); err != nil {
						return err
					}
					if err := ops.Launch(p, "lud_internal", gpu.Dim{size - off, size - off, 1}, a, size, uint64(off)); err != nil {
						return err
					}
				}
			}
			if _, err := ops.DtoH(p, a, size*4); err != nil {
				return err
			}
			return ops.Sync(p)
		},
	}
}

// SRAD: speckle-reducing anisotropic diffusion — a reduction readback plus
// a stencil launch per iteration.
func SRAD() Benchmark {
	return Benchmark{
		Name:    "srad",
		Kernels: []string{"srad_reduce", "srad_step"},
		seed:    81,
		run: func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error {
			const n, iters = 8192, 12
			img, err := upload(p, ops, f, n)
			if err != nil {
				return err
			}
			out, err := ops.MemAlloc(p, n*4)
			if err != nil {
				return err
			}
			stats, err := ops.MemAlloc(p, 8)
			if err != nil {
				return err
			}
			for it := 0; it < iters; it++ {
				if err := ops.Launch(p, "srad_reduce", gpu.Dim{n, 1, 1}, img, stats, n); err != nil {
					return err
				}
				// The host reads the statistics to derive the diffusion
				// coefficient each iteration (the srad sync pattern).
				st, err := ops.DtoH(p, stats, 8)
				if err != nil {
					return err
				}
				mean := gpu.UnpackF32(st)[0]
				lambda := float32(0.05)
				if mean > 0.5 {
					lambda = 0.02
				}
				if err := ops.Launch(p, "srad_step", gpu.Dim{n, 1, 1}, img, out, n, gpu.FloatBits(lambda)); err != nil {
					return err
				}
				img, out = out, img
			}
			if _, err := ops.DtoH(p, img, 1024); err != nil {
				return err
			}
			return ops.Sync(p)
		},
	}
}

// Streamcluster: online clustering — an assignment kernel and a host-side
// open-center decision per round.
func Streamcluster() Benchmark {
	return Benchmark{
		Name:    "streamcluster",
		Kernels: []string{"sc_assign"},
		run: func(p *sim.Proc, ops *accel.Launcher, _ *workload.Filler) error {
			const n, dims, rounds = 1024, 8, 10
			pts, err := allocUpload(p, ops, randFloats(91, n*dims))
			if err != nil {
				return err
			}
			centers := randFloats(92, 4*dims)
			k := 4
			gCents, err := ops.MemAlloc(p, 16*dims*4)
			if err != nil {
				return err
			}
			gCost, err := ops.MemAlloc(p, 4)
			if err != nil {
				return err
			}
			prevCost := float32(math.MaxFloat32)
			for r := 0; r < rounds; r++ {
				if err := ops.HtoD(p, gCents, gpu.Bytes(centers)); err != nil {
					return err
				}
				if err := ops.Launch(p, "sc_assign", gpu.Dim{n, 1, 1}, pts, gCents, gCost, n, uint64(k), dims); err != nil {
					return err
				}
				cb, err := ops.DtoH(p, gCost, 4)
				if err != nil {
					return err
				}
				cost := gpu.UnpackF32(cb)[0]
				// Host decision: open another center if the gain warrants.
				if cost < prevCost*0.95 && k < 16 {
					centers = append(centers, randFloats(int64(100+r), dims)...)
					k++
				}
				prevCost = cost
			}
			return ops.Sync(p)
		},
	}
}

// AllExtended returns the full Figure 7 suite including the extra
// workloads.
func AllExtended() []Benchmark {
	return append(All(), LUD(), SRAD(), Streamcluster())
}
