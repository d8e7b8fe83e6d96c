package gpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cronus/internal/sim"
)

// replay is what one replayMatmul run saw: the path matmul took, C's shape,
// and whether B held an Inf or a NaN.
type replay struct {
	path       matmulPath
	m, n       int
	nonFiniteB bool
}

// replayMatmul decodes b into one matmul, runs it and compares C with the
// textbook loop bit for bit. b[0]%3 picks the variant (f, tn, nt), b[1], b[2]
// and b[3] mod 41 are M, N and K, and the bytes after them pick, one each, the
// operands in storage order (A, then B): mod 16 they are +0, −0, +1, −1, a
// subnormal, +Inf, −Inf, a NaN, a finite value of at least 2¹²⁷ in magnitude
// (15: two such products overflow a sum), or (8–14, and every operand past
// the end of b) a normal draw from a generator seeded by the header.
func replayMatmul(ctx *Context, b []byte) (r replay, err error) {
	at := func(i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 8
	}
	aT, bT := at(0)%3 == 1, at(0)%3 == 2
	m, n, k := int(at(1))%41, int(at(2))%41, int(at(3))%41
	r.m, r.n = m, n
	var header [4]byte
	copy(header[:], b)
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint32(header[:]))))
	operand := func(class byte) float32 {
		switch class % 16 {
		case 0:
			return 0
		case 1:
			return float32(math.Copysign(0, -1))
		case 2:
			return 1
		case 3:
			return -1
		case 4:
			return math.Float32frombits(rng.Uint32()&0x807fffff | 1)
		case 5:
			return float32(math.Inf(1))
		case 6:
			return float32(math.Inf(-1))
		case 7:
			return math.Float32frombits(rng.Uint32()&0x807fffff | 0x7f800001)
		case 15:
			return math.Float32frombits(rng.Uint32()&0x807fffff | 0x7f000000)
		}
		return float32(rng.NormFloat64())
	}
	a, bs := make([]float32, m*k), make([]float32, k*n)
	for i := range a {
		a[i] = operand(at(4 + i))
	}
	for i := range bs {
		bs[i] = operand(at(4 + len(a) + i))
		r.nonFiniteB = r.nonFiniteB || math.IsInf(float64(bs[i]), 0) || bs[i] != bs[i]
	}

	// The oracle: each C[i,j] from +0, adding a·b for every non-zero a of
	// op(A)'s row i, t ascending. twoNaNs marks a lane where a multiply or
	// an add met two NaNs, whose payload x86 takes from either operand.
	opA := func(i, t int) float32 {
		if aT {
			return a[t*m+i]
		}
		return a[i*k+t]
	}
	opB := func(t, j int) float32 {
		if bT {
			return bs[j*k+t]
		}
		return bs[t*n+j]
	}
	want, twoNaNs := make([]float32, m*n), make([]bool, m*n)
	for i := range m {
		for j := range n {
			var c float32
			for t := range k {
				av, bv := opA(i, t), opB(t, j)
				if av == 0 {
					continue
				}
				p := float32(av * bv)
				twoNaNs[i*n+j] = twoNaNs[i*n+j] || av != av && bv != bv || c != c && p != p
				c += p
			}
			want[i*n+j] = c
		}
	}

	e := &Exec{Ctx: ctx}
	for _, v := range [][]float32{a, bs, make([]float32, m*n)} {
		ptr, err := ctx.MemAlloc(uint64(4 * (len(v) + 1)))
		if err != nil {
			return r, err
		}
		defer ctx.MemFree(ptr)
		view, err := e.F32(ptr, len(v)+1)
		if err != nil {
			return r, err
		}
		copy(view, v)
		e.Args = append(e.Args, ptr)
	}
	c, err := e.F32(e.Args[2], m*n+1)
	if err != nil {
		return r, err
	}
	for i := range c {
		c[i] = math.Float32frombits(0x7fbadbad) // every element must be written
	}
	e.Args = append(e.Args, uint64(m), uint64(n), uint64(k))
	if r.path, err = matmul(e, aT, bT); err != nil {
		return r, err
	}
	for i, w := range want {
		g := c[i]
		if math.Float32bits(g) == math.Float32bits(w) || twoNaNs[i] && g != g && w != w {
			continue
		}
		return r, fmt.Errorf("aT=%v bT=%v %dx%dx%d: C[%d] = %#08x, the textbook loop gives %#08x",
			aT, bT, m, n, k, i, math.Float32bits(g), math.Float32bits(w))
	}
	return r, nil
}

// matmulSeeds are FuzzMatmul's seed inputs: every variant through the tiles
// over C and over Cᵀ (trailing groups of one to seven rows, short last
// panels), the rows for a C of every width modulo eight (a short A: its
// tiles would be mostly padding), a B with an Inf refused before the tiles
// (K ≤ M), and a C made non-finite by a NaN in B or by overflowing sums
// caught after them (K > M).
func matmulSeeds() [][]byte {
	seed := func(variant, m, n, k byte, classes ...byte) []byte {
		return append([]byte{variant, m, n, k}, classes...)
	}
	zeros := bytes.Repeat([]byte{0, 1, 8, 9, 0, 2, 1, 3, 4, 8}, 30) // ±0 and ±1 among A's draws
	return [][]byte{
		seed(0, 9, 6, 25, zeros...),
		seed(1, 25, 6, 40, zeros...),
		seed(2, 7, 16, 33),
		seed(1, 6, 13, 5),
		seed(0, 4, 8, 0),
		seed(2, 5, 20, 11, zeros...),
		seed(0, 3, 40, 40),
		seed(1, 1, 17, 9, zeros...),
		seed(1, 2, 18, 21),
		seed(0, 1, 19, 12, zeros...),
		seed(1, 2, 20, 14),
		seed(1, 2, 21, 70),
		seed(2, 2, 22, 6),
		seed(0, 1, 23, 33, zeros...),
		seed(0, 5, 6, 3, append(bytes.Repeat([]byte{0, 8, 1}, 5), 8, 8, 5)...),    // +Inf in B opposite a ±0
		seed(1, 2, 3, 4, append(bytes.Repeat([]byte{8, 0}, 4), 8, 8, 8, 8, 7)...), // a NaN in B opposite a ±0
		seed(0, 9, 6, 25, bytes.Repeat([]byte{15}, 9*25+25*6)...),                 // sums past 2¹²⁸
	}
}

// FuzzMatmul holds every variant of MatmulFunc, through every leaf, to the
// textbook loop over inputs the fuzzer writes (replayMatmul). Each input runs
// on the leaves' AVX bodies, where this host has them, and on their Go twins.
func FuzzMatmul(f *testing.F) {
	for _, s := range matmulSeeds() {
		f.Add(s)
	}
	ctx := testGPU(sim.NewKernel()).CreateContext()
	f.Fuzz(func(t *testing.T, b []byte) {
		eachLeafBody(t, func(t *testing.T) {
			if _, err := replayMatmul(ctx, b); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestMatmulFuzzSeedsReachEveryLeaf requires FuzzMatmul's seeds, under each
// body eachLeafBody picks and taken together, to hold every matmul to the
// textbook loop and to reach every path matmul can take: tiles over C with a
// group of fewer than eight rows (M % 8 ≠ 0); tiles over Cᵀ with such a group
// (N % 8 ≠ 0) and a short last panel (M % 8 ≠ 0); the rows at every width
// modulo eight (the eight-lane loop alone, and with the four-lane step and the
// scalar tail of every length after it); a B with an Inf or a NaN refused
// before the tiles; and a non-finite C caught after them, both from an Inf or
// a NaN in B and from finite operands whose sums overflow.
func TestMatmulFuzzSeedsReachEveryLeaf(t *testing.T) {
	eachLeafBody(t, func(t *testing.T) {
		ctx := testGPU(sim.NewKernel()).CreateContext()
		var (
			shortTile, shortTileT, shortPanelT bool
			refused, redoneB, redoneSum        bool
			rowTails                           [8]bool
		)
		for _, s := range matmulSeeds() {
			r, err := replayMatmul(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			switch r.path {
			case pathTiles:
				shortTile = shortTile || r.m%8 != 0
			case pathTilesT:
				shortTileT = shortTileT || r.n%8 != 0
				shortPanelT = shortPanelT || r.m%8 != 0
			case pathRefused:
				refused = true
			case pathRedone:
				redoneB = redoneB || r.nonFiniteB
				redoneSum = redoneSum || !r.nonFiniteB
			case pathRows:
				rowTails[r.n%8] = true
			}
		}
		if !shortTile || !shortTileT || !shortPanelT || !refused || !redoneB || !redoneSum ||
			rowTails != [8]bool{true, true, true, true, true, true, true, true} {
			t.Fatalf("tiles over C with M %% 8 ≠ 0 %v; over Cᵀ with N %% 8 ≠ 0 %v, M %% 8 ≠ 0 %v; "+
				"B refused %v; C redone from B %v, from a sum %v; rows by N %% 8 %v",
				shortTile, shortTileT, shortPanelT, refused, redoneB, redoneSum, rowTails)
		}
	})
}

// TestMatmulAliasedOperands holds MatmulFunc to the textbook loop when C's
// memory meets A's or B's: C at A's start or B's, straddling either's middle,
// and apart from both, for every variant, with B finite and with an Inf in
// B, under each body eachLeafBody picks. The shapes take the tiles over C and
// over Cᵀ, each with B checked before (K ≤ M) and C after (K > M), and the
// rows; the rows, both tiles, the refused B and the redone C must each have
// met C with A and with B, so the operand read in place (A over C, B over
// Cᵀ) and the packed one are both overwritten somewhere, also when the rows
// must then start over. Every element outside C must keep its value.
func TestMatmulAliasedOperands(t *testing.T) {
	eachLeafBody(t, func(t *testing.T) {
		ctx := testGPU(sim.NewKernel()).CreateContext()
		rng := rand.New(rand.NewSource(37))
		var meets [pathRedone + 1][2]bool // by path: C met A, C met B
		for _, s := range []struct{ m, n, k int }{
			{9, 6, 9}, {12, 12, 12}, {9, 6, 25}, {5, 20, 20}, {24, 40, 24}, {2, 24, 3},
		} {
			for variant := range 6 {
				aT, bT, inf := variant%3 == 1, variant%3 == 2, variant >= 3
				sa, sb, sc := s.m*s.k, s.k*s.n, s.m*s.n
				oa, ob := 0, sa+3
				for _, oc := range []int{oa, oa + sa/2, ob, ob + sb/2, ob + sb + 1} {
					size := max(ob+sb, oc+sc)
					ptr, err := ctx.MemAlloc(uint64(4 * size))
					if err != nil {
						t.Fatal(err)
					}
					e := &Exec{Ctx: ctx}
					mem, err := e.F32(ptr, size)
					if err != nil {
						t.Fatal(err)
					}
					for i := range mem {
						mem[i] = float32(rng.NormFloat64())
						if rng.Intn(3) == 0 {
							mem[i] = 0
						}
					}
					if inf {
						mem[ob+sb/3] = float32(math.Inf(1))
					}
					a, b := slices.Clone(mem[oa:][:sa]), slices.Clone(mem[ob:][:sb])
					want := slices.Clone(mem)
					for i := range s.m {
						for j := range s.n {
							var c float32
							for tt := range s.k {
								av, bv := a[i*s.k+tt], b[tt*s.n+j]
								if aT {
									av = a[tt*s.m+i]
								}
								if bT {
									bv = b[j*s.k+tt]
								}
								if av != 0 {
									c += float32(av * bv)
								}
							}
							want[oc+i*s.n+j] = c
						}
					}
					e.Args = []uint64{ptr + uint64(4*oa), ptr + uint64(4*ob), ptr + uint64(4*oc), uint64(s.m), uint64(s.n), uint64(s.k)}
					path, err := matmul(e, aT, bT)
					if err != nil {
						t.Fatal(err)
					}
					meets[path][0] = meets[path][0] || oc < oa+sa
					meets[path][1] = meets[path][1] || oc+sc > ob && oc < ob+sb
					for i, w := range want {
						if math.Float32bits(mem[i]) != math.Float32bits(w) {
							t.Fatalf("aT=%v bT=%v %dx%dx%d, C at %d (A at %d, B at %d): element %d = %v, want %v",
								aT, bT, s.m, s.n, s.k, oc, oa, ob, i, mem[i], w)
						}
					}
					if err := ctx.MemFree(ptr); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, p := range []matmulPath{pathRows, pathTiles, pathTilesT, pathRefused, pathRedone} {
			if meets[p] != [2]bool{true, true} {
				t.Fatalf("path %d: C met A %v, B %v", p, meets[p][0], meets[p][1])
			}
		}
	})
}

// TestMatmulLeafKeepsTheMeasuredChoices holds matmulLeaf to the leaf that
// forced-leaf timings found fastest on paper_figs launch shapes, every other
// element of A zero as after a ReLU (a period a fixed-stride sample of A
// would misread): the rows where skipping zero terms wins, the tiles
// elsewhere, over Cᵀ exactly when M < N. A's values move the choice only
// through its non-zero terms: f_32x128x256 takes the tiles on a dense A and
// the rows on an all-zero one.
func TestMatmulLeafKeepsTheMeasuredChoices(t *testing.T) {
	half := func(n int) F32 {
		a := make(F32, n)
		for i := 0; i < n; i += 2 {
			a[i] = 1
		}
		return a
	}
	for _, c := range []struct {
		variant string
		m, n, k int
		want    matmulPath
	}{
		{"nt", 128, 288, 32, pathRows},
		{"nt", 32, 576, 64, pathRows},
		{"tn", 400, 120, 8, pathRows},
		{"tn", 288, 32, 128, pathTiles},
		{"f", 128, 32, 288, pathTiles},
		{"nt", 1152, 25, 6, pathTiles},
		{"tn", 576, 64, 32, pathTiles},
		{"nt", 8, 400, 120, pathTilesT},
		{"f", 20, 10, 800, pathTiles},
		{"tn", 25, 6, 1152, pathTiles},
	} {
		if got := matmulLeaf(c.m, c.n, c.k, half(c.m*c.k), c.variant == "tn", c.variant == "nt"); got != c.want {
			t.Errorf("%s_%dx%dx%d: path %d, want %d", c.variant, c.m, c.n, c.k, got, c.want)
		}
	}
	dense := make(F32, 32*256)
	for i := range dense {
		dense[i] = 1
	}
	if got := matmulLeaf(32, 128, 256, dense, false, false); got != pathTilesT {
		t.Errorf("f_32x128x256, dense A: path %d, want %d", got, pathTilesT)
	}
	if got := matmulLeaf(32, 128, 256, make(F32, 32*256), false, false); got != pathRows {
		t.Errorf("f_32x128x256, zero A: path %d, want %d", got, pathRows)
	}
}
