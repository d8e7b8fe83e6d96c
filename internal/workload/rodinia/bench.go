package rodinia

import (
	"fmt"
	"math/rand"

	"cronus/internal/accel"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/workload"
)

// Benchmark is one Rodinia workload.
type Benchmark struct {
	Name    string
	Kernels []string
	seed    uint64 // of the filler a pass draws its inputs from
	run     func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error
}

// Run executes one full benchmark pass through ops. Its synthetic inputs are
// floats in [0, 1) drawn by the filler of the benchmark's seed straight into
// the buffers HtoD uploads — except BFS's graph and streamcluster's points
// and centres, whose values decide how many rounds run and what they
// upload: those keep their math/rand streams, so their times stay the ones
// the figures report.
func (b Benchmark) Run(p *sim.Proc, ops accel.CUDA) error {
	return b.run(p, &accel.Launcher{CUDA: ops}, workload.NewFiller(b.seed))
}

// Cubin returns the module image for a benchmark (plus the std kernels the
// orchestration uses).
func (b Benchmark) Cubin() []byte {
	names := append([]string{}, b.Kernels...)
	return gpu.BuildCubin(names...)
}

// randFloats is streamcluster's math/rand stream of floats in [0, 1): its
// cost read-back, and so its centre count and uploads, depend on them.
func randFloats(seed int64, n int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()
	}
	return out
}

// allocUpload allocates device memory for data and uploads it as it lies.
func allocUpload(p *sim.Proc, ops accel.CUDA, data []float32) (uint64, error) {
	ptr, err := ops.MemAlloc(p, uint64(len(data)*4))
	if err != nil {
		return 0, err
	}
	return ptr, ops.HtoD(p, ptr, gpu.Bytes(data))
}

// upload allocates and uploads n floats in [0, 1) that f draws.
func upload(p *sim.Proc, ops accel.CUDA, f *workload.Filler, n int) (uint64, error) {
	data := make([]float32, n)
	f.Float32s(data, 0, 1)
	return allocUpload(p, ops, data)
}

// All returns the eight Figure 7 benchmarks.
func All() []Benchmark {
	return []Benchmark{
		Backprop(), BFS(), Gaussian(), Hotspot(),
		KMeans(), NN(), NW(), Pathfinder(),
	}
}

// ByName finds a benchmark in the extended suite.
func ByName(name string) (Benchmark, error) {
	for _, b := range AllExtended() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("rodinia: no benchmark %q", name)
}

// Backprop: a two-layer neural network sweep — matmul-heavy with a handful
// of launches (GPU-bound; TEE overhead should vanish here).
func Backprop() Benchmark {
	return Benchmark{
		Name:    "backprop",
		Kernels: []string{"bp_layerforward", "bp_adjust"},
		seed:    1,
		run: func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error {
			const in, hid, out, batch = 256, 128, 64, 32
			w1, err := upload(p, ops, f, in*hid)
			if err != nil {
				return err
			}
			w2, err := upload(p, ops, f, hid*out)
			if err != nil {
				return err
			}
			x, err := upload(p, ops, f, batch*in)
			if err != nil {
				return err
			}
			h, err := ops.MemAlloc(p, batch*hid*4)
			if err != nil {
				return err
			}
			y, err := ops.MemAlloc(p, batch*out*4)
			if err != nil {
				return err
			}
			for iter := 0; iter < 4; iter++ {
				if err := ops.Launch(p, "bp_layerforward", gpu.Dim{1, 1, 1}, x, w1, h, batch, hid, in); err != nil {
					return err
				}
				if err := ops.Launch(p, "bp_layerforward", gpu.Dim{1, 1, 1}, h, w2, y, batch, out, hid); err != nil {
					return err
				}
				// Weight adjustment sweep (the bpnn_adjust pass).
				if err := ops.Launch(p, "bp_adjust", gpu.Dim{hid * out, 1, 1}, w2, w2, gpu.FloatBits(-1e-4)); err != nil {
					return err
				}
			}
			if _, err := ops.DtoH(p, y, batch*out*4); err != nil {
				return err
			}
			return ops.Sync(p)
		},
	}
}

// BFS: level-synchronous graph traversal — a launch plus a host readback
// per level (sync-point heavy).
func BFS() Benchmark {
	return Benchmark{
		Name:    "bfs",
		Kernels: []string{"bfs_step"},
		run: func(p *sim.Proc, ops *accel.Launcher, _ *workload.Filler) error {
			const nodes = 2048
			const degree = 4
			rng := rand.New(rand.NewSource(7))
			idx := make([]float32, nodes+1)
			var dsts []float32
			for v := 0; v < nodes; v++ {
				idx[v] = float32(len(dsts))
				for d := 0; d < degree; d++ {
					dsts = append(dsts, float32(rng.Intn(nodes)))
				}
			}
			idx[nodes] = float32(len(dsts))
			gIdx, err := allocUpload(p, ops, idx)
			if err != nil {
				return err
			}
			gDst, err := allocUpload(p, ops, dsts)
			if err != nil {
				return err
			}
			cost := make([]float32, nodes)
			frontier := make([]float32, nodes)
			for i := range cost {
				cost[i] = -1
			}
			cost[0] = 0
			frontier[0] = 1
			gCost, err := allocUpload(p, ops, cost)
			if err != nil {
				return err
			}
			gFront, err := allocUpload(p, ops, frontier)
			if err != nil {
				return err
			}
			gNext, err := ops.MemAlloc(p, nodes*4)
			if err != nil {
				return err
			}
			gFlag, err := ops.MemAlloc(p, 4)
			if err != nil {
				return err
			}
			zero := make([]byte, 4)
			for level := 0; level < 32; level++ {
				if err := ops.HtoD(p, gFlag, zero); err != nil {
					return err
				}
				if err := ops.Launch(p, "bfs_step", gpu.Dim{nodes, 1, 1},
					gIdx, gDst, gCost, gFront, gNext, gFlag); err != nil {
					return err
				}
				gFront, gNext = gNext, gFront
				// Host checks the continuation flag every level: the
				// per-level synchronization that hurts lock-step RPC.
				flag, err := ops.DtoH(p, gFlag, 4)
				if err != nil {
					return err
				}
				if gpu.UnpackF32(flag)[0] == 0 {
					break
				}
			}
			return ops.Sync(p)
		},
	}
}

// Gaussian: elimination with two tiny launches per column — the
// launch-count-heaviest workload (where HIX is worst in Figure 7).
func Gaussian() Benchmark {
	return Benchmark{
		Name:    "gaussian",
		Kernels: []string{"gaussian_fan1", "gaussian_fan2"},
		seed:    11,
		run: func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error {
			const size = 96
			a, err := upload(p, ops, f, size*size)
			if err != nil {
				return err
			}
			b, err := upload(p, ops, f, size)
			if err != nil {
				return err
			}
			m, err := ops.MemAlloc(p, size*size*4)
			if err != nil {
				return err
			}
			for col := 0; col < size-1; col++ {
				if err := ops.Launch(p, "gaussian_fan1", gpu.Dim{size - col, 1, 1}, a, m, size, uint64(col)); err != nil {
					return err
				}
				if err := ops.Launch(p, "gaussian_fan2", gpu.Dim{(size - col) * size, 1, 1}, a, b, m, size, uint64(col)); err != nil {
					return err
				}
			}
			if _, err := ops.DtoH(p, b, size*4); err != nil {
				return err
			}
			return ops.Sync(p)
		},
	}
}

// Hotspot: thermal stencil, one launch per timestep with ping-pong buffers.
func Hotspot() Benchmark {
	return Benchmark{
		Name:    "hotspot",
		Kernels: []string{"hotspot_step"},
		seed:    21,
		run: func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error {
			const rows, cols, steps = 96, 96, 24
			tin, err := upload(p, ops, f, rows*cols)
			if err != nil {
				return err
			}
			tout, err := ops.MemAlloc(p, rows*cols*4)
			if err != nil {
				return err
			}
			power, err := upload(p, ops, f, rows*cols)
			if err != nil {
				return err
			}
			for s := 0; s < steps; s++ {
				if err := ops.Launch(p, "hotspot_step", gpu.Dim{rows * cols, 1, 1},
					tin, tout, power, rows, cols); err != nil {
					return err
				}
				tin, tout = tout, tin
			}
			if _, err := ops.DtoH(p, tin, rows*cols*4); err != nil {
				return err
			}
			return ops.Sync(p)
		},
	}
}

// KMeans: clustering iterations with a membership readback per round.
func KMeans() Benchmark {
	return Benchmark{
		Name:    "kmeans",
		Kernels: []string{"kmeans_assign", "kmeans_update"},
		seed:    31,
		run: func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error {
			const n, k, dims, rounds = 2048, 8, 16, 6
			pts, err := upload(p, ops, f, n*dims)
			if err != nil {
				return err
			}
			cents, err := upload(p, ops, f, k*dims)
			if err != nil {
				return err
			}
			mem, err := ops.MemAlloc(p, n*4)
			if err != nil {
				return err
			}
			for r := 0; r < rounds; r++ {
				if err := ops.Launch(p, "kmeans_assign", gpu.Dim{n, 1, 1}, pts, cents, mem, n, k, dims); err != nil {
					return err
				}
				if err := ops.Launch(p, "kmeans_update", gpu.Dim{k, 1, 1}, pts, cents, mem, n, k, dims); err != nil {
					return err
				}
				if _, err := ops.DtoH(p, cents, k*dims*4); err != nil {
					return err
				}
			}
			return ops.Sync(p)
		},
	}
}

// NN: nearest-neighbor search — one large upload, one big kernel, one
// result download (bandwidth-bound).
func NN() Benchmark {
	return Benchmark{
		Name:    "nn",
		Kernels: []string{"nn_dist"},
		seed:    41,
		run: func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error {
			const n, dims = 16384, 8
			recs, err := upload(p, ops, f, n*dims)
			if err != nil {
				return err
			}
			q, err := upload(p, ops, f, dims)
			if err != nil {
				return err
			}
			out, err := ops.MemAlloc(p, n*4)
			if err != nil {
				return err
			}
			if err := ops.Launch(p, "nn_dist", gpu.Dim{n, 1, 1}, recs, q, out, n, dims); err != nil {
				return err
			}
			dist, err := ops.DtoH(p, out, n*4)
			if err != nil {
				return err
			}
			// Host-side top-k selection on the returned distances.
			_ = dist
			return ops.Sync(p)
		},
	}
}

// NW: Needleman-Wunsch — one launch per anti-diagonal (2·size launches).
func NW() Benchmark {
	return Benchmark{
		Name:    "nw",
		Kernels: []string{"nw_diag"},
		seed:    51,
		run: func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error {
			const size = 128
			sc, err := ops.MemAlloc(p, (size+1)*(size+1)*4)
			if err != nil {
				return err
			}
			init := make([]float32, (size+1)*(size+1))
			for i := 0; i <= size; i++ {
				init[i*(size+1)] = float32(-i)
				init[i] = float32(-i)
			}
			if err := ops.HtoD(p, sc, gpu.Bytes(init)); err != nil {
				return err
			}
			ref, err := upload(p, ops, f, size*size)
			if err != nil {
				return err
			}
			for diag := 2; diag <= 2*size; diag++ {
				if err := ops.Launch(p, "nw_diag", gpu.Dim{size, 1, 1},
					sc, ref, size, uint64(diag), gpu.FloatBits(1.0)); err != nil {
					return err
				}
			}
			if _, err := ops.DtoH(p, sc, 4*(size+1)); err != nil {
				return err
			}
			return ops.Sync(p)
		},
	}
}

// Pathfinder: DP over rows, one launch per row with ping-pong buffers.
func Pathfinder() Benchmark {
	return Benchmark{
		Name:    "pathfinder",
		Kernels: []string{"pathfinder_row"},
		seed:    61,
		run: func(p *sim.Proc, ops *accel.Launcher, f *workload.Filler) error {
			const rows, cols = 64, 1024
			wall, err := upload(p, ops, f, rows*cols)
			if err != nil {
				return err
			}
			prev, err := ops.MemAlloc(p, cols*4)
			if err != nil {
				return err
			}
			next, err := ops.MemAlloc(p, cols*4)
			if err != nil {
				return err
			}
			for r := 1; r < rows; r++ {
				if err := ops.Launch(p, "pathfinder_row", gpu.Dim{cols, 1, 1},
					wall, prev, next, cols, uint64(r)); err != nil {
					return err
				}
				prev, next = next, prev
			}
			if _, err := ops.DtoH(p, prev, cols*4); err != nil {
				return err
			}
			return ops.Sync(p)
		},
	}
}
