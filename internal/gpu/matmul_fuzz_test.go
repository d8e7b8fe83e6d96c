package gpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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
// C with the textbook loop bit for bit. b[0]%3 picks the variant (f, tn, nt),
// b[1], b[2] and b[3] mod 41 are M, N and K, and the bytes after them pick,
// one each, the operands in storage order (A, then B): mod 16 they are +0,
// −0, +1, −1, a subnormal, +Inf, −Inf, a NaN, or (8–15, and every operand
// past the end of b) a normal draw from a generator seeded by the header.
func replayMatmul(ctx *Context, b []byte) (matmulLeaf, error) {
	at := func(i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 8
	}
	aT, bT := at(0)%3 == 1, at(0)%3 == 2
	m, n, k := int(at(1))%41, int(at(2))%41, int(at(3))%41
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
	leaf := leafRows
	if n <= narrowN {
		leaf = leafTiles
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
			return leaf, err
		}
		defer ctx.MemFree(ptr)
		view, err := e.F32(ptr, len(v)+1)
		if err != nil {
			return leaf, err
		}
		copy(view, v)
		e.Args = append(e.Args, ptr)
	}
	c, err := e.F32(e.Args[2], m*n+1)
	if err != nil {
		return leaf, err
	}
	for i := range c {
		c[i] = math.Float32frombits(0x7fbadbad) // every element must be written
	}
	e.Args = append(e.Args, uint64(m), uint64(n), uint64(k))
	if err := MatmulFunc(aT, bT)(e); err != nil {
		return leaf, err
	}
	for i, w := range want {
		g := c[i]
		if math.Float32bits(g) == math.Float32bits(w) || twoNaNs[i] && g != g && w != w {
			continue
		}
		return leaf, fmt.Errorf("aT=%v bT=%v %dx%dx%d: C[%d] = %#08x, the textbook loop gives %#08x",
			aT, bT, m, n, k, i, math.Float32bits(g), math.Float32bits(w))
	}
	return leaf, nil
}

// matmulSeeds are FuzzMatmul's seed inputs: every variant through the tiles
// (trailing groups of one to three rows, one and two panels), the rows path
// for a wide C, and the fallback for an Inf and for a NaN in B.
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
		seed(0, 5, 6, 3, append(bytes.Repeat([]byte{0, 8, 1}, 5), 8, 8, 5)...),    // +Inf in B opposite a ±0
		seed(1, 2, 3, 4, append(bytes.Repeat([]byte{8, 0}, 4), 8, 8, 8, 8, 7)...), // a NaN in B
	}
}

// FuzzMatmul holds every variant of MatmulFunc, through every leaf, to the
// textbook loop over inputs the fuzzer writes (replayMatmul).
func FuzzMatmul(f *testing.F) {
	for _, s := range matmulSeeds() {
		f.Add(s)
	}
	ctx := testGPU(sim.NewKernel()).CreateContext()
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := replayMatmul(ctx, b); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMatmulFuzzSeedsReachEveryLeaf requires FuzzMatmul's seeds, taken
// together, to reach the tiles, the rows path and the fallback.
func TestMatmulFuzzSeedsReachEveryLeaf(t *testing.T) {
	ctx := testGPU(sim.NewKernel()).CreateContext()
	var reached [3]bool
	for _, s := range matmulSeeds() {
		leaf, err := replayMatmul(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		reached[leaf] = true
	}
	if reached != [3]bool{true, true, true} {
		t.Fatalf("tiles, fallback, rows reached: %v", reached)
	}
}
