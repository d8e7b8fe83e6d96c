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
// add per product, so they all round like the textbook triple loop. Each
// launch takes the cheaper of two leaves by matmulLeaf: register tiles
// (mulTiles), which pack the smaller operand and read the other where it
// lies, or rows (mulRows), which skip zero A terms and read A and an
// untransposed B where they lie and a transposed one after turning it into
// the device arena. The tiles give way to the rows when B holds an Inf or a
// NaN. C is computed where it lies, unless its memory meets an operand read
// where it lies: then it is built in the arena and copied out after the
// compute, so C may alias A or B.
func MatmulFunc(aT, bT bool) func(*Exec) error {
	return func(e *Exec) error {
		_, err := matmul(e, aT, bT)
		return err
	}
}

// matmulPath is the way one launch computed C, which matmul reports so the
// tests can tell every leaf and fallback apart.
type matmulPath int

const (
	pathRows    matmulPath = iota // matmulLeaf chose the rows
	pathTiles                     // mulTiles over C
	pathTilesT                    // mulTiles over Cᵀ
	pathRefused                   // tiles chosen, B not finite: the rows
	pathRedone                    // the tiles made a non-finite C: the rows
)

// matmul is MatmulFunc's launch: it reports the path C took.
func matmul(e *Exec, aT, bT bool) (matmulPath, error) {
	m, n, k := e.Int(3), e.Int(4), e.Int(5)
	a, err := e.F32(e.Arg(0), m, k)
	if err != nil {
		return pathRows, err
	}
	b, err := e.F32(e.Arg(1), k, n)
	if err != nil {
		return pathRows, err
	}
	out, err := e.F32(e.Arg(2), m, n)
	if err != nil {
		return pathRows, err
	}
	if m == 0 || n == 0 {
		return pathRows, nil
	}
	// From here every loop bound and arena size is a dimension of a
	// non-empty view, so the allocations the caller owns bound them all.
	apartA := apart(e.Arg(2), m*n, e.Arg(0), m*k)
	apartB := apart(e.Arg(2), m*n, e.Arg(1), k*n)
	path := matmulLeaf(m, n, k, a, aT, bT)
	if path != pathRows {
		path = mulTiles(e, out, a, b, m, n, k, aT, bT, path == pathTilesT, apartA, apartB)
		if path == pathTiles || path == pathTilesT {
			return path, nil
		}
	}
	// A transposed operand is read from the arena, so only one read
	// where it lies can meet C.
	inPlace := (aT || apartA) && (bT || apartB)
	size := 0
	if !inPlace {
		size += m * n
	}
	if aT {
		size += m * k
	}
	if bT {
		size += k * n
	}
	s := e.Scratch(size)
	c := out
	if !inPlace {
		c, s = s[:m*n], s[m*n:]
	}
	if aT {
		transpose(s[:m*k], a, k, m)
		a, s = s[:m*k], s[m*k:]
	}
	if bT {
		transpose(s, b, n, k)
		b = s
	}
	mulRows(c, a, b, n, k)
	if !inPlace {
		copy(out, c)
	}
	return path, nil
}

// apart reports whether the launch's views at device addresses p and q, of n
// and m float32s, share no memory. A launch resolves every view in its own
// context, whose allocations have backings of their own, so two views meet
// exactly where their address ranges do. The ranges are compared by their
// last bytes, which cannot wrap: each lies inside an allocation.
func apart(p uint64, n int, q uint64, m int) bool {
	return n == 0 || m == 0 || p+4*uint64(n)-1 < q || q+4*uint64(m)-1 < p
}

// matmulLeaf picks the path a launch's C takes — pathRows, pathTiles or
// pathTilesT — from estimates of each leaf's host time, in units of about
// 1/20 ns, fitted to each leaf's timings, forced, on the launch shapes of a
// paper_figs pass on an AVX host. The tiles pack the smaller operand: they
// go over Cᵀ when M < N. They cost a fixed amount per 8×8 tile and per step
// of t in it, whatever A holds, plus the pack, the stores (a tile of Cᵀ is
// scattered a float at a time) and the finiteness check. The rows cost a
// compaction step per A element, a setup per C row, and per non-zero A term
// one pass over the C row in eight-wide vectors, a four-wide one and scalars,
// plus the transposes of a transposed operand. Only the terms depend on A's
// values: when the choice turns on them, their number is estimated from a
// sample of A (sampleNonZero).
func matmulLeaf(m, n, k int, a F32, aT, bT bool) matmulPath {
	m64, n64, k64 := int64(m), int64(n), int64(k)
	tiles := int64((m+7)/8) * int64((n+7)/8)
	leaf, packed, store := pathTiles, int64((n+7)/8*8)*k64, 2*m64*n64
	if m < n {
		leaf, packed, store = pathTilesT, int64((m+7)/8*8)*k64, 14*m64*n64
	}
	checked := m64 * n64
	if k <= m {
		checked = k64 * n64
	}
	tileCost := (64*k64+500)*tiles + 6*packed + store + 7*checked

	rowCost := 50*m64*k64 + 300*m64
	if aT {
		rowCost += 14 * m64 * k64
	}
	if bT {
		rowCost += 14 * k64 * n64
	}
	term := 4 + 9*int64(n/8+n%8/4+n%4) // rowTerms' steps along a C row
	switch {
	case tileCost <= rowCost: // the rows cost more with no term at all
		return leaf
	case tileCost >= rowCost+term*m64*k64: // the tiles cost more than every term
		return pathRows
	case tileCost < rowCost+term*sampleNonZero(a):
		return leaf
	}
	return pathRows
}

// sampleNonZero estimates the non-zero elements of a from at most 256 of
// them: all of a short one, else those at ⌊frac(i·φ)·len(a)⌋ for i < 256,
// φ the golden ratio in 32-bit fixed point. The points spread evenly over a,
// and an irrational step keeps them out of step with any period of its
// layout: a fixed stride could land on the same few columns of every row,
// and a ReLU's dead channels zero whole columns.
func sampleNonZero(a F32) int64 {
	const samples = 256
	if len(a) <= samples {
		nz := 0
		for _, v := range a {
			nz += nonZero(math.Float32bits(v))
		}
		return int64(nz)
	}
	nz := 0
	for i := range uint32(samples) {
		nz += nonZero(math.Float32bits(a[uint64(i*0x9e3779b9)*uint64(len(a))>>32]))
	}
	return int64(len(a)) * int64(nz) / samples
}

// mulTiles computes C = op(A) × op(B) into out in 8×8 register tiles
// (tileTerms) of D: C, or Cᵀ = op(B)ᵀ × op(A)ᵀ when overT. D's right operand
// (op(B), or op(A) over Cᵀ) is packed into the arena as panels of eight
// columns (packPanels), and its left one read where it lies. D is written to
// out tile by tile when out meets no operand that may still be read, and is
// otherwise built in the arena before the panels and copied out at the end.
// Every A term is taken, zero or not, which is exact only against a finite
// B: ±0 times a finite b is ±0, and adding ±0 to a sum that started at +0
// changes no bit, but ±0 times an Inf or a NaN is a NaN the textbook loop
// never makes. So B is checked on the cheaper side. When K ≤ M, B itself,
// before the tiles: an Inf or a NaN returns pathRefused with nothing written.
// Otherwise C, after them: an Inf or a NaN returns pathRedone, with out
// perhaps overwritten but both operands intact, for the rows to compute C
// again. Every term of a C column meets every element of its B column, so an
// Inf or a NaN in B leaves its whole column non-finite, and a finite C proves
// B finite. A trailing group of fewer than eight rows of D repeats its last
// row in its unused places and stores only its own rows.
func mulTiles(e *Exec, out, a, b F32, m, n, k int, aT, bT, overT, apartA, apartB bool) matmulPath {
	checkB := k <= m
	if checkB && !allFinite(b) {
		return pathRefused
	}
	// D's row r, term t is s[r·ri + t·rt]; D[r, c] is d[r·dr + c·dc].
	path, rows, cols := pathTiles, m, n
	s, ri, rt := a, k, 1
	if aT {
		ri, rt = 1, m
	}
	dr, dc := n, 1
	apartS, apartP := apartA, apartB
	if overT {
		path, rows, cols = pathTilesT, n, m
		s, ri, rt = b, 1, n
		if bT {
			ri, rt = k, 1
		}
		dr, dc = 1, n
		apartS, apartP = apartB, apartA
	}
	inArena := !apartS || !checkB && !apartP
	size := (cols + 7) / 8 * 8 * k // the panels
	if inArena {
		size += m * n
	}
	d, pp := out, e.Scratch(size)
	if inArena {
		d, pp = pp[:m*n], pp[m*n:]
	}
	if path == pathTiles {
		packPanels(pp, b, n, k, bT)
	} else {
		packPanels(pp, a, m, k, !aT)
	}
	var (
		tile [8][8]float32
		ao   [8]int
	)
	for r := 0; r < rows; r += 8 {
		for q := range ao {
			ao[q] = min(r+q, rows-1) * ri
		}
		// tileTerms reads s[ao[q] + t·rt] for t < k without a bounds check
		// of its own; the ao[q] ascend, so the last row's last term bounds
		// them all.
		if k > 0 {
			_ = s[ao[7]+(k-1)*rt]
		}
		h := min(8, rows-r)
		for c := 0; c < cols; c += 8 {
			tileTerms(&tile, s, &ao, rt, pp[c*k:][:8*k])
			storeTile(d[r*dr+c*dc:], &tile, h, min(8, cols-c), n, path == pathTilesT)
		}
	}
	if !checkB && !allFinite(d) {
		return pathRedone
	}
	if inArena {
		copy(out, d)
	}
	return path
}

// storeTile writes the h×w corner of tile into C from d[0], C's rows n floats
// apart: tile row q to C row q, or, when t (a tile of Cᵀ), to C column q.
// A full tile row goes as one [8]float32 assignment.
func storeTile(d F32, tile *[8][8]float32, h, w, n int, t bool) {
	switch {
	case !t && w == 8:
		for q := range h {
			*(*[8]float32)(d[q*n:]) = tile[q]
		}
	case !t:
		for q := range h {
			copy(d[q*n:][:w], tile[q][:w])
		}
	case h == 8:
		// Element stores: an [8]float32 built first and stored whole would
		// be read back from eight stores, which no store forwarding serves.
		for x := range w {
			col := (*[8]float32)(d[x*n:])
			col[0], col[1], col[2], col[3] = tile[0][x], tile[1][x], tile[2][x], tile[3][x]
			col[4], col[5], col[6], col[7] = tile[4][x], tile[5][x], tile[6][x], tile[7][x]
		}
	default:
		for x := range w {
			col := d[x*n:][:h]
			for q := range col {
				col[q] = tile[q][x]
			}
		}
	}
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

// packPanels stores P (k×n: p[t·n + j], or p[j·k + t] when pT) into pp as
// ⌈n/8⌉ panels of k rows of eight floats: panel i row t is columns 8i…8i+7 of
// P's row t, zero past column n−1 — no C element reads those lanes, but a
// stale subnormal left there would slow every multiply by it. len(pp) ==
// ⌈n/8⌉·8·k. Rows of an untransposed P move as [8]float32s through a
// local: assigned from array to array in memory, which may overlap, they
// would each be a memmove call.
func packPanels(pp, p F32, n, k int, pT bool) {
	for j := 0; j < n; j += 8 {
		panel, w := pp[j*k:][:8*k], min(8, n-j)
		if pT {
			clear(panel)
			for jj := range w {
				col := p[(j+jj)*k:][:k]
				for t, v := range col {
					panel[8*t+jj] = v
				}
			}
			continue
		}
		// Eight floats from P's row, the lanes past w (the next row's) then
		// zeroed in place; in a panel short of eight columns the last rows,
		// whose eight would run past p, go a float at a time.
		t := 0
		for ; t < k && t*n+j+8 <= len(p); t++ {
			src, row := *(*[8]float32)(p[t*n+j:]), (*[8]float32)(panel[8*t:])
			*row = src
			for x := w; x < 8; x++ {
				row[x] = 0
			}
		}
		for ; t < k; t++ {
			row := (*[8]float32)(panel[8*t:])
			*row = [8]float32{}
			for x, v := range p[t*n+j:][:w] {
				row[x] = v
			}
		}
	}
}

// transpose stores the rows×cols matrix src into dst as cols×rows, in 8×8
// blocks: a block reads eight runs of eight floats from eight src rows and
// writes eight runs of eight to eight dst rows, every index proven in bounds
// by its run's conversion to *[8]float32. The columns go in strips of 256, so
// the 256 dst lines a strip writes stay in L1 while its blocks walk down the
// rows and fill each line. The last rows%8 rows and cols%8 columns go one
// element at a time.
func transpose(dst, src F32, rows, cols int) {
	const strip = 256
	r8, c8 := rows&^7, cols&^7
	for c0 := 0; c0 < c8; c0 += strip {
		c1 := min(c0+strip, c8)
		for r := 0; r < r8; r += 8 {
			for c := c0; c < c1; c += 8 {
				transpose8(dst[c*rows+r:], src[r*cols+c:], rows, cols)
			}
		}
	}
	for r := r8; r < rows; r++ {
		for c, v := range src[r*cols:][:c8] {
			dst[c*rows+r] = v
		}
	}
	for c := c8; c < cols; c++ {
		d := dst[c*rows:][:rows]
		for r := range d {
			d[r] = src[r*cols+c]
		}
	}
}

// transpose8 stores the 8×8 block at the start of src (row stride cols) into
// dst (row stride rows) transposed.
func transpose8(dst, src F32, rows, cols int) {
	s0, s1 := (*[8]float32)(src), (*[8]float32)(src[cols:])
	s2, s3 := (*[8]float32)(src[2*cols:]), (*[8]float32)(src[3*cols:])
	s4, s5 := (*[8]float32)(src[4*cols:]), (*[8]float32)(src[5*cols:])
	s6, s7 := (*[8]float32)(src[6*cols:]), (*[8]float32)(src[7*cols:])
	for q := range s0 {
		d := (*[8]float32)(dst[q*rows:])
		d[0], d[1], d[2], d[3] = s0[q], s1[q], s2[q], s3[q]
		d[4], d[5], d[6], d[7] = s4[q], s5[q], s6[q], s7[q]
	}
}

// nonZero is 1 when the float32 whose bits are b is not ±0 and 0 when it is:
// a != 0 as arithmetic, so that no compiler heuristic turns mulRows'
// compaction back into a branch. Shifting out the sign leaves a non-zero
// word exactly for the other floats, NaNs included, and adding 2³²-1 to it
// carries into bit 32 exactly when it is non-zero.
func nonZero(b uint32) int { return int((uint64(b<<1) + math.MaxUint32) >> 32) }

// mulRows is C = A × B over row-major C[m×n], A[m×k], B[k×n], n > 0: each C
// row is cleared just before its turn, so it is still in cache when it gains
// a[t]·B[t,:] for every non-zero a[t] of its A row, t ascending. A row is read
// a stretch of up to 64 terms at a time; each stretch's non-zero terms are
// first compacted, without a branch (after a ReLU half of A is zero and no
// predictor guesses which half), and rowTerms folds them into the C row.
func mulRows(c, a, b F32, n, k int) {
	const stretch = 64
	var (
		av [stretch]float32 // a stretch's non-zero terms ...
		at [stretch]int     // ... and where their B rows start
	)
	for ; len(c) > 0; c, a = c[n:], a[k:] {
		cr := c[:n]
		clear(cr)
		for t0 := 0; t0 < k; t0 += stretch {
			nz, bt := 0, t0*n
			for _, v := range a[t0:min(t0+stretch, k)] {
				// nz never passes the stretch's own index; the mask only
				// proves it to the compiler.
				av[nz&(stretch-1)], at[nz&(stretch-1)] = v, bt
				nz += nonZero(math.Float32bits(v))
				bt += n
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
