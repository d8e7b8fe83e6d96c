// Package rodinia reproduces the Rodinia GPU benchmark suite used in the
// paper's microbenchmark evaluation (Figure 7): eight workloads with the
// launch/copy patterns that make them interesting for TEE overhead studies —
// from single-big-kernel (nn) to hundreds of tiny launches with host
// synchronization every step (gaussian, bfs, nw), which is where lock-step
// encrypted RPC (HIX) collapses and streaming RPC does not.
//
// Kernels perform real computations on device memory; grids and iteration
// counts are scaled to simulation-friendly sizes.
package rodinia

import (
	"fmt"
	"math"

	"cronus/internal/gpu"
	"cronus/internal/sim"
)

// badArg rejects a launch argument the device views cannot bound — an index
// outside the matrix it points into, or a zero dimension that lets another
// one size a loop or an allocation unchecked. It is the error a bad pointer
// gets, returned before any loop or allocation the argument would size.
func badArg(kernel, arg string, v int) error {
	return fmt.Errorf("%w: %s %s = %d", gpu.ErrInvalidPointer, kernel, arg, v)
}

// rodCost models a kernel's duration as fixed + perElem·grid ns. The
// magnitudes are calibrated to the kernel times of the *full-size* Rodinia
// datasets the paper runs (hundreds of microseconds to milliseconds), while
// the functional computation runs on scaled-down data — the documented
// substitution that keeps the simulation laptop-sized without distorting
// the relative overheads of the four systems.
func rodCost(fixed sim.Duration, perElem float64, demandFrac float64) func(float64, gpu.Dim, []uint64) gpu.LaunchCost {
	return func(sms float64, g gpu.Dim, _ []uint64) gpu.LaunchCost {
		return gpu.LaunchCost{
			Work:     fixed + sim.Duration(perElem*float64(g.Elems())),
			SMDemand: sms * demandFrac,
		}
	}
}

func init() { RegisterKernels() }

// RegisterKernels installs the Rodinia kernels (including the extended
// suite's). It runs at package init; a test that replaced one of them calls
// it again to put the shipped ones back.
func RegisterKernels() {
	registerExtendedKernels()
	// bfs_step: frontier relaxation. args: edgesIdx, edgesDst, cost,
	// frontier, next, changedFlag; grid [nodes].
	gpu.Register(&gpu.Kernel{
		Name: "bfs_step",
		Cost: rodCost(180*sim.Microsecond, 30, 0.5),
		Func: func(e *gpu.Exec) error {
			n := e.Grid.Elems()
			fi, err := e.F32(e.Arg(0), n+1)
			if err != nil {
				return err
			}
			// Edge list length from the index array's last entry.
			nEdges := int(fi[n])
			fd, err := e.F32(e.Arg(1), nEdges)
			if err != nil {
				return err
			}
			fc, err := e.F32(e.Arg(2), n)
			if err != nil {
				return err
			}
			ff, err := e.F32(e.Arg(3), n)
			if err != nil {
				return err
			}
			fn, err := e.F32(e.Arg(4), n)
			if err != nil {
				return err
			}
			flag, err := e.F32(e.Arg(5), 1)
			if err != nil {
				return err
			}
			changed := false
			clear(fn)
			for v := 0; v < n; v++ {
				if ff[v] != 1 {
					continue
				}
				start, end := int(fi[v]), int(fi[v+1])
				if start < 0 {
					return badArg("bfs_step", "edge offset", start)
				}
				for ei := start; ei < end && ei < nEdges; ei++ {
					w := int(fd[ei])
					if w >= 0 && w < n && fc[w] < 0 {
						fc[w] = fc[v] + 1
						fn[w] = 1
						changed = true
					}
				}
			}
			if changed {
				flag[0] = 1
			}
			return nil
		},
	})

	// gaussian_fan1: compute multipliers column i. args: a, m, size, col.
	gpu.Register(&gpu.Kernel{
		Name: "gaussian_fan1",
		Cost: rodCost(25*sim.Microsecond, 0.5, 0.3),
		Func: func(e *gpu.Exec) error {
			size := e.Int(2)
			col := e.Int(3)
			a, err := e.F32(e.Arg(0), size, size)
			if err != nil {
				return err
			}
			m, err := e.F32(e.Arg(1), size, size)
			if err != nil {
				return err
			}
			if col < 0 || col >= size {
				return badArg("gaussian_fan1", "col", col)
			}
			pivot := a[col*size+col]
			if pivot == 0 {
				pivot = 1e-6
			}
			for r := col + 1; r < size; r++ {
				m[r*size+col] = a[r*size+col] / pivot
			}
			return nil
		},
	})

	// gaussian_fan2: eliminate below the pivot. args: a, b, m, size, col.
	gpu.Register(&gpu.Kernel{
		Name: "gaussian_fan2",
		Cost: rodCost(60*sim.Microsecond, 1.0, 0.6),
		Func: func(e *gpu.Exec) error {
			size := e.Int(3)
			col := e.Int(4)
			a, err := e.F32(e.Arg(0), size, size)
			if err != nil {
				return err
			}
			bv, err := e.F32(e.Arg(1), size)
			if err != nil {
				return err
			}
			m, err := e.F32(e.Arg(2), size, size)
			if err != nil {
				return err
			}
			if col < 0 || col >= size {
				return badArg("gaussian_fan2", "col", col)
			}
			for r := col + 1; r < size; r++ {
				mult := m[r*size+col]
				if mult == 0 {
					continue
				}
				for c := col; c < size; c++ {
					a[r*size+c] -= float32(mult * a[col*size+c])
				}
				bv[r] -= float32(mult * bv[col])
			}
			return nil
		},
	})

	// hotspot_step: 5-point stencil thermal step. args: tin, tout, power,
	// rows, cols.
	gpu.Register(&gpu.Kernel{
		Name: "hotspot_step",
		Cost: rodCost(90*sim.Microsecond, 10, 0.8),
		Func: func(e *gpu.Exec) error {
			rows, cols := e.Int(3), e.Int(4)
			ti, err := e.F32(e.Arg(0), rows, cols)
			if err != nil {
				return err
			}
			to, err := e.F32(e.Arg(1), rows, cols)
			if err != nil {
				return err
			}
			pw, err := e.F32(e.Arg(2), rows, cols)
			if err != nil {
				return err
			}
			at := func(r, c int) float32 {
				if r < 0 {
					r = 0
				}
				if r >= rows {
					r = rows - 1
				}
				if c < 0 {
					c = 0
				}
				if c >= cols {
					c = cols - 1
				}
				return ti[r*cols+c]
			}
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					center := at(r, c)
					delta := float32(0.2*(at(r-1, c)+at(r+1, c)+at(r, c-1)+at(r, c+1)-float32(4*center))) + float32(0.05*pw[r*cols+c])
					to[r*cols+c] = center + delta
				}
			}
			return nil
		},
	})

	// kmeans_assign: assign points to nearest centroid. args: pts, cents,
	// membership, n, k, dims.
	gpu.Register(&gpu.Kernel{
		Name: "kmeans_assign",
		Cost: rodCost(200*sim.Microsecond, 40, 0.8),
		Func: func(e *gpu.Exec) error {
			n, k, dims := e.Int(3), e.Int(4), e.Int(5)
			if dims < 1 { // a k×0 view bounds no k
				return badArg("kmeans_assign", "dims", dims)
			}
			fp, err := e.F32(e.Arg(0), n, dims)
			if err != nil {
				return err
			}
			fc, err := e.F32(e.Arg(1), k, dims)
			if err != nil {
				return err
			}
			fm, err := e.F32(e.Arg(2), n)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				best, bestD := 0, float32(math.MaxFloat32)
				for c := 0; c < k; c++ {
					var d float32
					for j := 0; j < dims; j++ {
						diff := fp[i*dims+j] - fc[c*dims+j]
						d += float32(diff * diff)
					}
					if d < bestD {
						bestD, best = d, c
					}
				}
				fm[i] = float32(best)
			}
			return nil
		},
	})

	// kmeans_update: recompute centroids. args: pts, cents, membership,
	// n, k, dims.
	gpu.Register(&gpu.Kernel{
		Name: "kmeans_update",
		Cost: rodCost(50*sim.Microsecond, 2, 0.5),
		Func: func(e *gpu.Exec) error {
			n, k, dims := e.Int(3), e.Int(4), e.Int(5)
			if dims < 1 { // a k×0 view bounds no k
				return badArg("kmeans_update", "dims", dims)
			}
			fp, err := e.F32(e.Arg(0), n, dims)
			if err != nil {
				return err
			}
			fc, err := e.F32(e.Arg(1), k, dims)
			if err != nil {
				return err
			}
			fm, err := e.F32(e.Arg(2), n)
			if err != nil {
				return err
			}
			counts := make([]float32, k)
			sums := make([]float32, k*dims)
			for i := 0; i < n; i++ {
				c := int(fm[i])
				if c < 0 || c >= k {
					continue
				}
				counts[c]++
				for j := 0; j < dims; j++ {
					sums[c*dims+j] += fp[i*dims+j]
				}
			}
			for c := 0; c < k; c++ {
				if counts[c] == 0 {
					continue
				}
				for j := 0; j < dims; j++ {
					fc[c*dims+j] = sums[c*dims+j] / counts[c]
				}
			}
			return nil
		},
	})

	// nn_dist: distances from a query. args: records, query..., out, n, dims.
	gpu.Register(&gpu.Kernel{
		Name: "nn_dist",
		Cost: rodCost(100*sim.Microsecond, 20, 1.0),
		Func: func(e *gpu.Exec) error {
			n, dims := e.Int(3), e.Int(4)
			fr, err := e.F32(e.Arg(0), n, dims)
			if err != nil {
				return err
			}
			fq, err := e.F32(e.Arg(1), dims)
			if err != nil {
				return err
			}
			fo, err := e.F32(e.Arg(2), n)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				var d float32
				for j := 0; j < dims; j++ {
					diff := fr[i*dims+j] - fq[j]
					d += float32(diff * diff)
				}
				fo[i] = float32(math.Sqrt(float64(d)))
			}
			return nil
		},
	})

	// nw_diag: one anti-diagonal of Needleman-Wunsch. args: score, ref,
	// size, diag, penaltyBits.
	gpu.Register(&gpu.Kernel{
		Name: "nw_diag",
		Cost: rodCost(25*sim.Microsecond, 40, 0.25),
		Func: func(e *gpu.Exec) error {
			size := e.Int(2)
			diag := e.Int(3)
			penalty := math.Float32frombits(uint32(e.Arg(4)))
			w := size + 1
			fs, err := e.F32(e.Arg(0), w, w)
			if err != nil {
				return err
			}
			fr, err := e.F32(e.Arg(1), size, size)
			if err != nil {
				return err
			}
			if diag < 2 || diag > 2*size { // cell (i, diag-i) is in no row
				return badArg("nw_diag", "diag", diag)
			}
			for i := 1; i <= size; i++ {
				j := diag - i
				if j < 1 || j > size {
					continue
				}
				m := fs[(i-1)*w+j-1] + fr[(i-1)*size+j-1]
				del := fs[(i-1)*w+j] - penalty
				ins := fs[i*w+j-1] - penalty
				best := m
				if del > best {
					best = del
				}
				if ins > best {
					best = ins
				}
				fs[i*w+j] = best
			}
			return nil
		},
	})

	// pathfinder_row: one DP row. args: wall, prev, next, cols, row.
	gpu.Register(&gpu.Kernel{
		Name: "pathfinder_row",
		Cost: rodCost(30*sim.Microsecond, 5, 0.3),
		Func: func(e *gpu.Exec) error {
			cols := e.Int(3)
			row := e.Int(4)
			if row < 0 { // row -1 views 0×cols of the wall
				return badArg("pathfinder_row", "row", row)
			}
			fw, err := e.F32(e.Arg(0), row+1, cols)
			if err != nil {
				return err
			}
			fp, err := e.F32(e.Arg(1), cols)
			if err != nil {
				return err
			}
			fn, err := e.F32(e.Arg(2), cols)
			if err != nil {
				return err
			}
			for c := 0; c < cols; c++ {
				best := fp[c]
				if c > 0 && fp[c-1] < best {
					best = fp[c-1]
				}
				if c < cols-1 && fp[c+1] < best {
					best = fp[c+1]
				}
				fn[c] = best + fw[row*cols+c]
			}
			return nil
		},
	})

	// bp_layerforward: fused matmul+sigmoid layer of the backprop NN.
	// args: x, w, y, M, N, K. The matmul is the std one (gpu.MatmulFunc,
	// so y may alias x or w); the sigmoid then runs over y in place.
	matmul := gpu.MatmulFunc(false, false)
	gpu.Register(&gpu.Kernel{
		Name: "bp_layerforward",
		Cost: rodCost(250*sim.Microsecond, 0, 0.8),
		Func: func(e *gpu.Exec) error {
			if err := matmul(e); err != nil {
				return err
			}
			y, err := e.F32(e.Arg(2), e.Int(3), e.Int(4))
			if err != nil {
				return err
			}
			for i, v := range y {
				y[i] = float32(1 / (1 + math.Exp(-float64(v))))
			}
			return nil
		},
	})

	// bp_adjust: weight adjustment sweep. args: grad, w, alphaBits; grid [n].
	gpu.Register(&gpu.Kernel{
		Name: "bp_adjust",
		Cost: rodCost(120*sim.Microsecond, 0, 0.6),
		Func: func(e *gpu.Exec) error {
			var g, w gpu.F32
			if err := e.F32s(e.Grid.Elems(), &g, &w); err != nil {
				return err
			}
			alpha := math.Float32frombits(uint32(e.Arg(2)))
			for i := range w {
				w[i] += float32(alpha * g[i])
			}
			return nil
		},
	})

	// srad_step: diffusion update used by the backprop-style workloads.
	// args: img, out, n, lambdaBits.
	gpu.Register(&gpu.Kernel{
		Name: "srad_step",
		Cost: rodCost(150*sim.Microsecond, 10, 0.7),
		Func: func(e *gpu.Exec) error {
			n := e.Grid.Elems()
			var fi, fo gpu.F32
			if err := e.F32s(n, &fi, &fo); err != nil {
				return err
			}
			lambda := math.Float32frombits(uint32(e.Arg(3)))
			for i := 0; i < n; i++ {
				left := fi[(i+n-1)%n]
				right := fi[(i+1)%n]
				fo[i] = fi[i] + float32(lambda*(left+right-float32(2*fi[i])))
			}
			return nil
		},
	})
}
