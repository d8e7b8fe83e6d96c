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

// matmulLeaf names the path MatmulFunc takes for C's width and B's contents.
type matmulLeaf int

const (
	leafTiles    matmulLeaf = iota // n ≤ narrowN, B finite: mulTiles
	leafFallback                   // n ≤ narrowN, an Inf or a NaN in B: mulRows
	leafRows                       // n > narrowN: mulRows
)

// replayMatmul decodes b into one matmul, runs MatmulFunc on it and compares
// C with the textbook loop bit for bit; it returns the leaf taken and C's
// shape. b[0]%3 picks the variant (f, tn, nt),
// b[1], b[2] and b[3] mod 41 are M, N and K, and the bytes after them pick,
// one each, the operands in storage order (A, then B): mod 16 they are +0,
// −0, +1, −1, a subnormal, +Inf, −Inf, a NaN, or (8–15, and every operand
// past the end of b) a normal draw from a generator seeded by the header.
func replayMatmul(ctx *Context, b []byte) (leaf matmulLeaf, m, n int, err error) {
	at := func(i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 8
	}
	aT, bT := at(0)%3 == 1, at(0)%3 == 2
	m, n, k := int(at(1))%41, int(at(2))%41, int(at(3))%41
	leaf = leafRows
	if n <= narrowN {
		leaf = leafTiles
	}
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
		}
		return float32(rng.NormFloat64())
	}
	a, bs := make([]float32, m*k), make([]float32, k*n)
	for i := range a {
		a[i] = operand(at(4 + i))
	}
	for i := range bs {
		bs[i] = operand(at(4 + len(a) + i))
		if leaf == leafTiles && (math.IsInf(float64(bs[i]), 0) || bs[i] != bs[i]) {
			leaf = leafFallback
		}
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
			return leaf, m, n, err
		}
		defer ctx.MemFree(ptr)
		view, err := e.F32(ptr, len(v)+1)
		if err != nil {
			return leaf, m, n, err
		}
		copy(view, v)
		e.Args = append(e.Args, ptr)
	}
	c, err := e.F32(e.Args[2], m*n+1)
	if err != nil {
		return leaf, m, n, err
	}
	for i := range c {
		c[i] = math.Float32frombits(0x7fbadbad) // every element must be written
	}
	e.Args = append(e.Args, uint64(m), uint64(n), uint64(k))
	if err := MatmulFunc(aT, bT)(e); err != nil {
		return leaf, m, n, err
	}
	for i, w := range want {
		g := c[i]
		if math.Float32bits(g) == math.Float32bits(w) || twoNaNs[i] && g != g && w != w {
			continue
		}
		return leaf, m, n, fmt.Errorf("aT=%v bT=%v %dx%dx%d: C[%d] = %#08x, the textbook loop gives %#08x",
			aT, bT, m, n, k, i, math.Float32bits(g), math.Float32bits(w))
	}
	return leaf, m, n, nil
}

// matmulSeeds are FuzzMatmul's seed inputs: every variant through the tiles
// (trailing groups of one to seven rows, one and two panels), the rows path
// for a wide C of every width modulo eight, and the fallback for an Inf and
// for a NaN in B.
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
		seed(1, 11, 17, 9, zeros...),
		seed(2, 3, 18, 21),
		seed(0, 13, 19, 12, zeros...),
		seed(1, 2, 21, 70),
		seed(2, 5, 22, 6),
		seed(0, 4, 23, 33, zeros...),
		seed(0, 5, 6, 3, append(bytes.Repeat([]byte{0, 8, 1}, 5), 8, 8, 5)...),    // +Inf in B opposite a ±0
		seed(1, 2, 3, 4, append(bytes.Repeat([]byte{8, 0}, 4), 8, 8, 8, 8, 7)...), // a NaN in B
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
			if _, _, _, err := replayMatmul(ctx, b); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestMatmulFuzzSeedsReachEveryLeaf requires FuzzMatmul's seeds, under each
// body eachLeafBody picks and taken together, to hold every matmul to the
// textbook loop and to reach a tile group of fewer than eight rows (M % 8 ≠ 0),
// the rows path at every width modulo eight (the eight-lane loop alone, and
// with the four-lane step and the scalar tail of every length after it), and
// the fallback.
func TestMatmulFuzzSeedsReachEveryLeaf(t *testing.T) {
	eachLeafBody(t, func(t *testing.T) {
		ctx := testGPU(sim.NewKernel()).CreateContext()
		var (
			shortTile, fallback bool
			rowTails            [8]bool
		)
		for _, s := range matmulSeeds() {
			leaf, m, n, err := replayMatmul(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			switch leaf {
			case leafTiles:
				shortTile = shortTile || m%8 != 0
			case leafFallback:
				fallback = true
			case leafRows:
				rowTails[n%8] = true
			}
		}
		if !shortTile || !fallback || rowTails != [8]bool{true, true, true, true, true, true, true, true} {
			t.Fatalf("tile with M %% 8 ≠ 0 %v, fallback %v, rows by N %% 8 %v", shortTile, fallback, rowTails)
		}
	})
}

// TestMatmulAliasedOperands holds MatmulFunc to the textbook loop when C's
// memory meets A's or B's: C at A's start or B's, straddling either's middle,
// and apart from both, for every variant on the tiles and on the rows, under
// each body eachLeafBody picks. Every element outside C must keep its value.
func TestMatmulAliasedOperands(t *testing.T) {
	eachLeafBody(t, func(t *testing.T) {
		ctx := testGPU(sim.NewKernel()).CreateContext()
		rng := rand.New(rand.NewSource(37))
		for _, s := range []struct{ m, n, k int }{{9, 6, 9}, {12, 12, 12}, {5, 20, 20}, {17, 24, 7}} {
			for variant := range 3 {
				aT, bT := variant == 1, variant == 2
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
					if err := MatmulFunc(aT, bT)(e); err != nil {
						t.Fatal(err)
					}
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
	})
}
