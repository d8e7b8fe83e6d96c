package gpu

import (
	"math"

	"cronus/internal/sim"
)

// UnpackF32 decodes bytes into float32s; b may sit at any host offset.
func UnpackF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	copy(Bytes(out), b)
	return out
}

// Device-wide FMA throughput used by the FLOP-based cost model: ~8 TFLOP/s
// across the full SM pool, i.e. 8000 FLOPs per virtual nanosecond.
const flopsPerNsFullDevice = 8000.0

// FlopCost models a launch by FLOP count: the ideal duration of a kernel whose
// grid performs flops(grid, args) operations while filling the fraction frac
// of the launching device's SMs.
func FlopCost(frac float64, flops func(grid Dim, args []uint64) float64) func(float64, Dim, []uint64) LaunchCost {
	return func(sms float64, grid Dim, args []uint64) LaunchCost {
		demand := sms * frac
		rate := flopsPerNsFullDevice * demand / sms
		return LaunchCost{
			Work:     sim.Duration(flops(grid, args) / rate),
			SMDemand: demand,
		}
	}
}

// MatmulFunc is the body of every matmul kernel: C[M×N] = op(A) × op(B), args
// a, b, c, M, N, K. aT says A is stored K×M, bT that B is stored N×K. The
// variants differ only in how the operands lie in memory: each C[i,j] adds its
// K products in ascending t, skipping zero A elements, one multiply and one
// add per product, so they all round like the textbook triple loop. C's width
// picks the leaf: a C of at most narrowN columns is computed in register tiles
// by mulTiles, which reads A where it lies, unless B holds an Inf or a NaN; a
// wider C, and that fallback, go a row at a time through mulRows, which reads
// A and an untransposed B where they lie and a transposed one after turning it
// into the device arena. C is built in the arena and copied out after the
// compute, so C may alias A or B.
func MatmulFunc(aT, bT bool) func(*Exec) error {
	return func(e *Exec) error {
		m, n, k := e.Int(3), e.Int(4), e.Int(5)
		a, err := e.F32(e.Arg(0), m, k)
		if err != nil {
			return err
		}
		b, err := e.F32(e.Arg(1), k, n)
		if err != nil {
			return err
		}
		out, err := e.F32(e.Arg(2), m, n)
		if err != nil {
			return err
		}
		if m == 0 || n == 0 {
			return nil
		}
		// From here every loop bound and arena size is a dimension of a
		// non-empty view, so the allocations the caller owns bound them all.
		if n <= narrowN && mulTiles(e, out, a, b, m, n, k, aT, bT) {
			return nil
		}
		size := m * n
		if aT {
			size += m * k
		}
		if bT {
			size += k * n
		}
		s := e.Scratch(size)
		c, s := s[:m*n], s[m*n:]
		if aT {
			transpose(s[:m*k], a, k, m)
			a, s = s[:m*k], s[m*k:]
		}
		if bT {
			transpose(s, b, n, k)
			b = s
		}
		clear(c)
		mulRows(c, a, b, n, k)
		copy(out, c)
		return nil
	}
}

// narrowN is the widest C that mulTiles computes, two panels of eight
// columns: up to it every shape of BenchmarkMatmulShapes runs faster in tiles
// than in rows; past it the rows' skipping of zero A terms starts to win on
// some shapes (a 1152×25×6 nt, K = 6, runs slower in tiles at N = 25).
const narrowN = 16

// mulTiles computes C = op(A) × op(B) into out four rows and one eight-column
// panel at a time (tileTerms), B packed into the arena after C. Every A term
// is taken, zero or not, which is exact only against a finite B: ±0 times a
// finite b is ±0, and adding ±0 to a sum that started at +0 changes no bit,
// but ±0 times an Inf or a NaN is a NaN the textbook loop never makes. So it
// reports false, having written nothing to out, when B holds an Inf or a NaN.
// A trailing group of fewer than four rows repeats row m−1 in its unused
// places and copies out only its own rows.
func mulTiles(e *Exec, out, a, b F32, m, n, k int, aT, bT bool) bool {
	if !allFinite(b) {
		return false
	}
	panels := (n + 7) / 8
	s := e.Scratch(m*n + panels*8*k)
	c, bp := s[:m*n], s[m*n:]
	packPanels(bp, b, n, k, bT)
	ri, rt := k, 1 // op(A)[i,t] is a[i·ri + t·rt]
	if aT {
		ri, rt = 1, m
	}
	var (
		tile [4][8]float32
		ao   [4]int
	)
	for i := 0; i < m; i += 4 {
		for q := range ao {
			ao[q] = min(i+q, m-1) * ri
		}
		// tileTerms reads a[ao[q] + t·rt] for t < k without a bounds check
		// of its own; the ao[q] ascend, so the last row's last term bounds
		// them all.
		if k > 0 {
			_ = a[ao[3]+(k-1)*rt]
		}
		rows := min(4, m-i)
		for j := 0; j < n; j += 8 {
			tileTerms(&tile, a, &ao, rt, bp[j*k:][:8*k])
			w := min(8, n-j)
			for q := range rows {
				copy(c[(i+q)*n+j:][:w], tile[q][:w])
			}
		}
	}
	copy(out, c)
	return true
}

// allFinite reports whether no element of x is an Inf or a NaN: those are the
// floats whose exponent bits are all ones, and adding one to the exponent
// field carries into the sign bit exactly for them.
func allFinite(x []float32) bool {
	var carry uint32
	for _, v := range x {
		carry |= math.Float32bits(v)&0x7f800000 + 0x00800000
	}
	return carry>>31 == 0
}

// packPanels stores op(B) (k×n; B itself is n×k when bT) into bp as
// ⌈n/8⌉ panels of k rows of eight floats: panel p row t is columns 8p…8p+7 of
// op(B)'s row t, zero past column n−1 — no C column reads those lanes, but a
// stale subnormal left there would slow every multiply by it. len(bp) ==
// ⌈n/8⌉·8·k.
func packPanels(bp, b F32, n, k int, bT bool) {
	for j := 0; j < n; j += 8 {
		panel, w := bp[j*k:][:8*k], min(8, n-j)
		if bT {
			clear(panel)
			for jj := range w {
				col := b[(j+jj)*k:][:k]
				for t, v := range col {
					panel[8*t+jj] = v
				}
			}
			continue
		}
		for t := range k {
			row := panel[8*t:][:8]
			copy(row, b[t*n+j:][:w])
			clear(row[w:])
		}
	}
}

// transpose stores the rows×cols matrix src into dst as cols×rows. dst is
// written in order and src read down a column, 256 rows at a time: the lines
// those reads touch (16 KiB) stay in L1 for the 15 columns that share them.
func transpose(dst, src F32, rows, cols int) {
	const block = 256
	for r0 := 0; r0 < rows; r0 += block {
		r1 := min(r0+block, rows)
		for c := 0; c < cols; c++ {
			d, s := dst[c*rows+r0:c*rows+r1], src[r0*cols+c:]
			for r := range d {
				d[r] = s[r*cols]
			}
		}
	}
}

// nonZero is 1 when the float32 whose bits are b is not ±0 and 0 when it is:
// a != 0 as arithmetic, so that no compiler heuristic turns mulRows'
// compaction back into a branch. Shifting out the sign leaves a non-zero
// word exactly for the other floats, NaNs included, and adding 2³²-1 to it
// carries into bit 32 exactly when it is non-zero.
func nonZero(b uint32) int { return int((uint64(b<<1) + math.MaxUint32) >> 32) }

// mulRows is C += A × B over row-major C[m×n], A[m×k], B[k×n], n > 0: each C
// row gains a[t]·B[t,:] for every non-zero a[t] of its A row, t ascending. A
// row's non-zero terms are first compacted, without a branch (after a ReLU
// half of A is zero and no predictor guesses which half), a stretch of up to
// 64 at a time, and rowTerms folds each stretch into the C row.
func mulRows(c, a, b F32, n, k int) {
	var (
		av [64]float32 // a stretch of the row's non-zero terms ...
		at [64]int     // ... and where their B rows start
	)
	for ; len(c) > 0; c, a = c[n:], a[k:] {
		cr, ar := c[:n], a[:k]
		for t := 0; t < k; {
			nz := 0
			for ; t < k && nz < len(av); t++ {
				av[nz], at[nz] = ar[t], t*n
				nz += nonZero(math.Float32bits(ar[t]))
			}
			if nz == 0 {
				continue
			}
			// rowTerms reads b[at[g]:][:n] for each g < nz without a bounds
			// check of its own. at ascends, so the first term's row start and
			// the last one's row end bound every read; av[:nz] and at[:nz]
			// have the same length.
			_, _ = b[at[0]], b[at[nz-1]+n-1]
			rowTerms(cr, b, av[:nz], at[:nz])
		}
	}
}

// negMask is all ones when the float32 whose bits are b is below zero, and
// zero otherwise: ReLU's test as a mask instead of a branch, which after a
// layer's random signs no predictor guesses. Below zero are the patterns
// 0x80000001 (the negative subnormal nearest -0) through 0xff800000 (-Inf);
// -0 and the negative NaNs are not, so a mask keeps them as the comparison
// does. One wrapping subtraction moves that range to [0, 0x7f800000), and
// the sign of a 64-bit difference tests it.
func negMask(b uint32) uint32 {
	return uint32((int64(b-0x80000001) - 0x7f800000) >> 63)
}

// PosMask is all ones when the float32 whose bits are b is above zero, and
// zero otherwise: relu_bwd's test as a mask, built as negMask is. Above zero
// are 0x00000001 through 0x7f800000 (+Inf), neither +0 nor a NaN.
func PosMask(b uint32) uint32 {
	return uint32((int64(b-1) - 0x7f800000) >> 63)
}

// relu stores x < 0 ? 0 : x into y, element by element; len(y) == len(x).
func relu(y, x []float32) {
	y = y[:len(x)]
	for i, v := range x {
		b := math.Float32bits(v)
		y[i] = math.Float32frombits(b &^ negMask(b))
	}
}

// ElemFlops is the FLOP count of a kernel doing perElem operations per grid
// element, for FlopCost.
func ElemFlops(perElem float64) func(Dim, []uint64) float64 {
	return func(g Dim, _ []uint64) float64 { return perElem * float64(g.Elems()) }
}

func init() { RegisterStdKernels() }

// RegisterStdKernels installs the standard kernel library (vector add,
// saxpy, matmul, relu, elementwise scale/sub, reductions) shared by the DNN
// workloads and examples. It runs at package init; a test that replaced one
// of these kernels calls it again to put the shipped ones back.
func RegisterStdKernels() {
	// vec_add: c[i] = a[i] + b[i]; args: a, b, c; grid [n].
	Register(&Kernel{
		Name: "vec_add",
		Cost: FlopCost(0.5, ElemFlops(1)),
		Func: func(e *Exec) error {
			var a, b, c F32
			if err := e.F32s(e.Grid.Elems(), &a, &b, &c); err != nil {
				return err
			}
			for i := range c {
				c[i] = a[i] + b[i]
			}
			return nil
		},
	})

	// saxpy: y[i] += alpha*x[i]; args: x, y, alphaBits; grid [n].
	Register(&Kernel{
		Name: "saxpy",
		Cost: FlopCost(0.5, ElemFlops(2)),
		Func: func(e *Exec) error {
			var x, y F32
			if err := e.F32s(e.Grid.Elems(), &x, &y); err != nil {
				return err
			}
			alpha := math.Float32frombits(uint32(e.Arg(2)))
			for i := range y {
				y[i] += float32(alpha * x[i])
			}
			return nil
		},
	})

	// matmul: C[M×N] = A[M×K] × B[K×N]; args: a, b, c, M, N, K.
	Register(&Kernel{
		Name: "matmul",
		Cost: FlopCost(0.75, func(_ Dim, args []uint64) float64 {
			m, n, k := float64(args[3]), float64(args[4]), float64(args[5])
			return 2 * m * n * k
		}),
		Func: MatmulFunc(false, false),
	})

	// relu: y[i] = x[i] < 0 ? 0 : x[i]; args: x, y; grid [n]. NaN and -0
	// pass through.
	Register(&Kernel{
		Name: "relu",
		Cost: FlopCost(0.4, ElemFlops(1)),
		Func: func(e *Exec) error {
			var x, y F32
			if err := e.F32s(e.Grid.Elems(), &x, &y); err != nil {
				return err
			}
			relu(y, x)
			return nil
		},
	})

	// scale: x[i] *= alpha; args: x, alphaBits; grid [n].
	Register(&Kernel{
		Name: "scale",
		Cost: FlopCost(0.4, ElemFlops(1)),
		Func: func(e *Exec) error {
			var x F32
			if err := e.F32s(e.Grid.Elems(), &x); err != nil {
				return err
			}
			alpha := math.Float32frombits(uint32(e.Arg(1)))
			for i := range x {
				x[i] *= alpha
			}
			return nil
		},
	})

	// sub: c[i] = a[i] - b[i]; args: a, b, c; grid [n].
	Register(&Kernel{
		Name: "sub",
		Cost: FlopCost(0.5, ElemFlops(1)),
		Func: func(e *Exec) error {
			var a, b, c F32
			if err := e.F32s(e.Grid.Elems(), &a, &b, &c); err != nil {
				return err
			}
			for i := range c {
				c[i] = a[i] - b[i]
			}
			return nil
		},
	})

	// reduce_sum: out[0] = sum(x); args: x, out; grid [n].
	Register(&Kernel{
		Name: "reduce_sum",
		Cost: FlopCost(0.6, ElemFlops(1)),
		Func: func(e *Exec) error {
			var x F32
			if err := e.F32s(e.Grid.Elems(), &x); err != nil {
				return err
			}
			out, err := e.F32(e.Arg(1), 1)
			if err != nil {
				return err
			}
			var s float32
			for _, v := range x {
				s += v
			}
			out[0] = s
			return nil
		},
	})
}

// FloatBits packs a float32 into a launch argument.
func FloatBits(v float32) uint64 { return uint64(math.Float32bits(v)) }
