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
	"math"

	"cronus/internal/gpu"
	"cronus/internal/sim"
)

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
			idx, err := e.Bytes(e.Arg(0), (n+1)*4)
			if err != nil {
				return err
			}
			// Edge list length from the index array's last entry.
			fi := gpu.F32(idx)
			nEdges := int(fi.Get(n))
			dst, err := e.Bytes(e.Arg(1), nEdges*4)
			if err != nil {
				return err
			}
			cost, err := e.Bytes(e.Arg(2), n*4)
			if err != nil {
				return err
			}
			frontier, err := e.Bytes(e.Arg(3), n*4)
			if err != nil {
				return err
			}
			next, err := e.Bytes(e.Arg(4), n*4)
			if err != nil {
				return err
			}
			flag, err := e.Bytes(e.Arg(5), 4)
			if err != nil {
				return err
			}
			fd, fc, ff, fn := gpu.F32(dst), gpu.F32(cost), gpu.F32(frontier), gpu.F32(next)
			changed := false
			for v := 0; v < n; v++ {
				fn.Set(v, 0)
			}
			for v := 0; v < n; v++ {
				if ff.Get(v) != 1 {
					continue
				}
				start, end := int(fi.Get(v)), int(fi.Get(v+1))
				for ei := start; ei < end && ei < nEdges; ei++ {
					w := int(fd.Get(ei))
					if w >= 0 && w < n && fc.Get(w) < 0 {
						fc.Set(w, fc.Get(v)+1)
						fn.Set(w, 1)
						changed = true
					}
				}
			}
			if changed {
				gpu.F32(flag).Set(0, 1)
			}
			return nil
		},
	})

	// gaussian_fan1: compute multipliers column i. args: a, m, size, col.
	gpu.Register(&gpu.Kernel{
		Name: "gaussian_fan1",
		Cost: rodCost(25*sim.Microsecond, 0.5, 0.3),
		Func: func(e *gpu.Exec) error {
			size := int(e.Arg(2))
			col := int(e.Arg(3))
			ab, err := e.Bytes(e.Arg(0), size*size*4)
			if err != nil {
				return err
			}
			mb, err := e.Bytes(e.Arg(1), size*size*4)
			if err != nil {
				return err
			}
			a, m := gpu.F32(ab), gpu.F32(mb)
			pivot := a.Get(col*size + col)
			if pivot == 0 {
				pivot = 1e-6
			}
			for r := col + 1; r < size; r++ {
				m.Set(r*size+col, a.Get(r*size+col)/pivot)
			}
			return nil
		},
	})

	// gaussian_fan2: eliminate below the pivot. args: a, b, m, size, col.
	gpu.Register(&gpu.Kernel{
		Name: "gaussian_fan2",
		Cost: rodCost(60*sim.Microsecond, 1.0, 0.6),
		Func: func(e *gpu.Exec) error {
			size := int(e.Arg(3))
			col := int(e.Arg(4))
			ab, err := e.Bytes(e.Arg(0), size*size*4)
			if err != nil {
				return err
			}
			bb, err := e.Bytes(e.Arg(1), size*4)
			if err != nil {
				return err
			}
			mb, err := e.Bytes(e.Arg(2), size*size*4)
			if err != nil {
				return err
			}
			a, bv, m := gpu.F32(ab), gpu.F32(bb), gpu.F32(mb)
			for r := col + 1; r < size; r++ {
				mult := m.Get(r*size + col)
				if mult == 0 {
					continue
				}
				for c := col; c < size; c++ {
					a.Set(r*size+c, a.Get(r*size+c)-mult*a.Get(col*size+c))
				}
				bv.Set(r, bv.Get(r)-mult*bv.Get(col))
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
			rows, cols := int(e.Arg(3)), int(e.Arg(4))
			n := rows * cols
			tin, err := e.Bytes(e.Arg(0), n*4)
			if err != nil {
				return err
			}
			tout, err := e.Bytes(e.Arg(1), n*4)
			if err != nil {
				return err
			}
			pow, err := e.Bytes(e.Arg(2), n*4)
			if err != nil {
				return err
			}
			ti, to, pw := gpu.F32(tin), gpu.F32(tout), gpu.F32(pow)
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
				return ti.Get(r*cols + c)
			}
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					center := at(r, c)
					delta := 0.2*(at(r-1, c)+at(r+1, c)+at(r, c-1)+at(r, c+1)-4*center) + 0.05*pw.Get(r*cols+c)
					to.Set(r*cols+c, center+delta)
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
			n, k, dims := int(e.Arg(3)), int(e.Arg(4)), int(e.Arg(5))
			pts, err := e.Bytes(e.Arg(0), n*dims*4)
			if err != nil {
				return err
			}
			cents, err := e.Bytes(e.Arg(1), k*dims*4)
			if err != nil {
				return err
			}
			mem, err := e.Bytes(e.Arg(2), n*4)
			if err != nil {
				return err
			}
			fp, fc, fm := gpu.F32(pts), gpu.F32(cents), gpu.F32(mem)
			for i := 0; i < n; i++ {
				best, bestD := 0, float32(math.MaxFloat32)
				for c := 0; c < k; c++ {
					var d float32
					for j := 0; j < dims; j++ {
						diff := fp.Get(i*dims+j) - fc.Get(c*dims+j)
						d += diff * diff
					}
					if d < bestD {
						bestD, best = d, c
					}
				}
				fm.Set(i, float32(best))
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
			n, k, dims := int(e.Arg(3)), int(e.Arg(4)), int(e.Arg(5))
			pts, err := e.Bytes(e.Arg(0), n*dims*4)
			if err != nil {
				return err
			}
			cents, err := e.Bytes(e.Arg(1), k*dims*4)
			if err != nil {
				return err
			}
			mem, err := e.Bytes(e.Arg(2), n*4)
			if err != nil {
				return err
			}
			fp, fc, fm := gpu.F32(pts), gpu.F32(cents), gpu.F32(mem)
			counts := make([]float32, k)
			sums := make([]float32, k*dims)
			for i := 0; i < n; i++ {
				c := int(fm.Get(i))
				if c < 0 || c >= k {
					continue
				}
				counts[c]++
				for j := 0; j < dims; j++ {
					sums[c*dims+j] += fp.Get(i*dims + j)
				}
			}
			for c := 0; c < k; c++ {
				if counts[c] == 0 {
					continue
				}
				for j := 0; j < dims; j++ {
					fc.Set(c*dims+j, sums[c*dims+j]/counts[c])
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
			n, dims := int(e.Arg(3)), int(e.Arg(4))
			recs, err := e.Bytes(e.Arg(0), n*dims*4)
			if err != nil {
				return err
			}
			q, err := e.Bytes(e.Arg(1), dims*4)
			if err != nil {
				return err
			}
			out, err := e.Bytes(e.Arg(2), n*4)
			if err != nil {
				return err
			}
			fr, fq, fo := gpu.F32(recs), gpu.F32(q), gpu.F32(out)
			for i := 0; i < n; i++ {
				var d float32
				for j := 0; j < dims; j++ {
					diff := fr.Get(i*dims+j) - fq.Get(j)
					d += diff * diff
				}
				fo.Set(i, float32(math.Sqrt(float64(d))))
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
			size := int(e.Arg(2))
			diag := int(e.Arg(3))
			penalty := math.Float32frombits(uint32(e.Arg(4)))
			sc, err := e.Bytes(e.Arg(0), (size+1)*(size+1)*4)
			if err != nil {
				return err
			}
			ref, err := e.Bytes(e.Arg(1), size*size*4)
			if err != nil {
				return err
			}
			fs, fr := gpu.F32(sc), gpu.F32(ref)
			w := size + 1
			for i := 1; i <= size; i++ {
				j := diag - i
				if j < 1 || j > size {
					continue
				}
				m := fs.Get((i-1)*w+j-1) + fr.Get((i-1)*size+j-1)
				del := fs.Get((i-1)*w+j) - penalty
				ins := fs.Get(i*w+j-1) - penalty
				best := m
				if del > best {
					best = del
				}
				if ins > best {
					best = ins
				}
				fs.Set(i*w+j, best)
			}
			return nil
		},
	})

	// pathfinder_row: one DP row. args: wall, prev, next, cols, row.
	gpu.Register(&gpu.Kernel{
		Name: "pathfinder_row",
		Cost: rodCost(30*sim.Microsecond, 5, 0.3),
		Func: func(e *gpu.Exec) error {
			cols := int(e.Arg(3))
			row := int(e.Arg(4))
			wall, err := e.Bytes(e.Arg(0), (row+1)*cols*4)
			if err != nil {
				return err
			}
			prev, err := e.Bytes(e.Arg(1), cols*4)
			if err != nil {
				return err
			}
			next, err := e.Bytes(e.Arg(2), cols*4)
			if err != nil {
				return err
			}
			fw, fp, fn := gpu.F32(wall), gpu.F32(prev), gpu.F32(next)
			for c := 0; c < cols; c++ {
				best := fp.Get(c)
				if c > 0 && fp.Get(c-1) < best {
					best = fp.Get(c - 1)
				}
				if c < cols-1 && fp.Get(c+1) < best {
					best = fp.Get(c + 1)
				}
				fn.Set(c, best+fw.Get(row*cols+c))
			}
			return nil
		},
	})

	// bp_layerforward: fused matmul+sigmoid layer of the backprop NN.
	// args: x, w, y, M, N, K.
	gpu.Register(&gpu.Kernel{
		Name: "bp_layerforward",
		Cost: rodCost(250*sim.Microsecond, 0, 0.8),
		Func: func(e *gpu.Exec) error {
			m, n, k := int(e.Arg(3)), int(e.Arg(4)), int(e.Arg(5))
			xb, err := e.Bytes(e.Arg(0), m*k*4)
			if err != nil {
				return err
			}
			wb, err := e.Bytes(e.Arg(1), k*n*4)
			if err != nil {
				return err
			}
			yb, err := e.Bytes(e.Arg(2), m*n*4)
			if err != nil {
				return err
			}
			x, w := gpu.UnpackF32(xb), gpu.UnpackF32(wb)
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
			for i := range y {
				y[i] = float32(1 / (1 + math.Exp(-float64(y[i])))) // sigmoid
			}
			copy(yb, gpu.PackF32(y))
			return nil
		},
	})

	// bp_adjust: weight adjustment sweep. args: grad, w, alphaBits; grid [n].
	gpu.Register(&gpu.Kernel{
		Name: "bp_adjust",
		Cost: rodCost(120*sim.Microsecond, 0, 0.6),
		Func: func(e *gpu.Exec) error {
			n := e.Grid.Elems()
			gb, err := e.Bytes(e.Arg(0), n*4)
			if err != nil {
				return err
			}
			wb, err := e.Bytes(e.Arg(1), n*4)
			if err != nil {
				return err
			}
			alpha := math.Float32frombits(uint32(e.Arg(2)))
			g, w := gpu.F32(gb), gpu.F32(wb)
			for i := 0; i < n; i++ {
				w.Set(i, w.Get(i)+alpha*g.Get(i))
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
			img, err := e.Bytes(e.Arg(0), n*4)
			if err != nil {
				return err
			}
			out, err := e.Bytes(e.Arg(1), n*4)
			if err != nil {
				return err
			}
			lambda := math.Float32frombits(uint32(e.Arg(3)))
			fi, fo := gpu.F32(img), gpu.F32(out)
			for i := 0; i < n; i++ {
				left := fi.Get((i + n - 1) % n)
				right := fi.Get((i + 1) % n)
				fo.Set(i, fi.Get(i)+lambda*(left+right-2*fi.Get(i)))
			}
			return nil
		},
	})
}
