package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cronus/internal/sim"
)

// TestRowTermsMatchPortable holds rowTerms to rowTermsGo bit for bit: rows of
// every width modulo eight and several vectors long, 0–9 and 64 terms, over
// dense values, subnormal products, ±Inf opposite a non-zero a and one NaN
// operand, under each body eachLeafBody picks; where rowTerms runs rowTermsGo
// it compares the function with itself. A lane that meets two NaNs is
// compared by NaN-ness only: x86 keeps one operand's payload, and which one is
// the first source differs between the compiler's scalar code and the
// assembly.
func TestRowTermsMatchPortable(t *testing.T) {
	eachLeafBody(t, testRowTermsMatchPortable)
}

func testRowTermsMatchPortable(t *testing.T) {
	widths := []int{64, 67, 261}
	for n := 1; n <= 19; n++ {
		widths = append(widths, n)
	}
	terms := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64}
	fills := []struct {
		name    string
		twoNaNs bool // some lane may take two NaN products
		fill    func(rng *rand.Rand, c, b, av []float32)
	}{
		{"dense", false, func(*rand.Rand, []float32, []float32, []float32) {}},
		{"subnormal", false, func(rng *rand.Rand, c, b, av []float32) {
			// Products near the smallest normal and below it, added to a
			// row that starts at zero.
			for i := range av {
				av[i] = float32(1+rng.Intn(4)) * 0x1p-70
			}
			for i := range b {
				b[i] = float32(rng.NormFloat64()) * 0x1p-60
			}
			clear(c)
		}},
		{"inf", false, func(rng *rand.Rand, c, b, av []float32) {
			// ±Inf in B, opposite a non-zero a: an Inf product, and NaN where
			// two of opposite signs meet in a lane.
			for range 1 + len(b)/8 {
				b[rng.Intn(len(b))] = float32(math.Inf(1 - 2*rng.Intn(2)))
			}
		}},
		{"nan-b", false, func(rng *rand.Rand, c, b, av []float32) {
			b[rng.Intn(len(b))] = math.Float32frombits(0x7fa00001 | rng.Uint32()&0x801ffffe)
		}},
		{"nan-a", false, func(rng *rand.Rand, c, b, av []float32) {
			if len(av) > 0 {
				av[rng.Intn(len(av))] = math.Float32frombits(0xffc00003)
			}
		}},
		{"nan-c", false, func(rng *rand.Rand, c, b, av []float32) {
			c[rng.Intn(len(c))] = math.Float32frombits(0x7fc12345)
		}},
		{"nans", true, func(rng *rand.Rand, c, b, av []float32) {
			for range 1 + len(b)/8 {
				b[rng.Intn(len(b))] = math.Float32frombits(0x7fc00000 | rng.Uint32()&0x803fffff)
			}
		}},
	}
	rng := rand.New(rand.NewSource(35))
	for _, n := range widths {
		for _, nz := range terms {
			for _, f := range fills {
				// B has a row per term plus rows the terms skip, as a
				// compacted stretch of a sparse A row does.
				k := 2*nz + 1
				c, b := make([]float32, n), make([]float32, k*n)
				av, at := make([]float32, nz), make([]int, nz)
				for i := range c {
					c[i] = float32(rng.NormFloat64())
				}
				for i := range b {
					b[i] = float32(rng.NormFloat64())
				}
				for g, t := 0, 0; g < nz; g++ {
					t += rng.Intn(2)
					av[g], at[g] = float32(rng.NormFloat64()), t*n
					t++
				}
				f.fill(rng, c, b, av)
				want := append([]float32(nil), c...)
				rowTermsGo(want, b, av, at)
				rowTerms(c, b, av, at)
				for j := range c {
					g, w := math.Float32bits(c[j]), math.Float32bits(want[j])
					if g == w || f.twoNaNs && c[j] != c[j] && want[j] != want[j] {
						continue
					}
					t.Errorf("%s n=%d terms=%d: c[%d] = %#08x, rowTermsGo gives %#08x", f.name, n, nz, j, g, w)
					break
				}
			}
		}
	}
}

// TestTileTermsMatchPortable holds tileTerms to tileTermsGo bit for bit: A
// stored both ways (rt 1 and rt M), every tile height from one to eight rows
// (the ao of the missing rows repeat the last), 0–9, 64 and 300 terms, over
// dense values, zero a values of both signs, subnormal products, ±Inf in
// either operand and one NaN operand, under each body eachLeafBody picks;
// where tileTerms runs tileTermsGo it compares the function with itself. A
// lane that meets two NaNs is compared by NaN-ness only, as in
// TestRowTermsMatchPortable.
func TestTileTermsMatchPortable(t *testing.T) {
	eachLeafBody(t, testTileTermsMatchPortable)
}

func testTileTermsMatchPortable(t *testing.T) {
	fills := []struct {
		name    string
		twoNaNs bool
		fill    func(rng *rand.Rand, a, bp []float32)
	}{
		{"dense", false, func(*rand.Rand, []float32, []float32) {}},
		{"zeros", false, func(rng *rand.Rand, a, _ []float32) {
			for i := range a {
				if rng.Intn(2) == 0 {
					a[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
				}
			}
		}},
		{"subnormal", false, func(rng *rand.Rand, a, bp []float32) {
			for i := range a {
				a[i] = float32(1+rng.Intn(4)) * 0x1p-70
			}
			for i := range bp {
				bp[i] = float32(rng.NormFloat64()) * 0x1p-60
			}
		}},
		{"inf", false, func(rng *rand.Rand, a, bp []float32) {
			bp[rng.Intn(len(bp))] = float32(math.Inf(1 - 2*rng.Intn(2)))
			a[rng.Intn(len(a))] = float32(math.Inf(1 - 2*rng.Intn(2)))
		}},
		{"nan-a", false, func(rng *rand.Rand, a, _ []float32) {
			a[rng.Intn(len(a))] = math.Float32frombits(0xffc00003)
		}},
		{"nan-b", false, func(rng *rand.Rand, _, bp []float32) {
			bp[rng.Intn(len(bp))] = math.Float32frombits(0x7fa00001 | rng.Uint32()&0x801ffffe)
		}},
		{"nans", true, func(rng *rand.Rand, a, bp []float32) {
			for range 1 + len(bp)/8 {
				bp[rng.Intn(len(bp))] = math.Float32frombits(0x7fc00000 | rng.Uint32()&0x803fffff)
			}
			a[rng.Intn(len(a))] = math.Float32frombits(0xffc00003)
		}},
	}
	rng := rand.New(rand.NewSource(36))
	for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 300} {
		for m := 1; m <= 8; m++ {
			for _, aT := range []bool{false, true} {
				for _, f := range fills {
					a, bp := make([]float32, m*k+1), make([]float32, 8*k+8)
					for i := range a {
						a[i] = float32(rng.NormFloat64())
					}
					for i := range bp {
						bp[i] = float32(rng.NormFloat64())
					}
					f.fill(rng, a, bp)
					a, bp = a[:m*k], bp[:8*k]
					ri, rt := k, 1
					if aT {
						ri, rt = 1, m
					}
					var ao [8]int
					for q := range ao {
						ao[q] = min(q, m-1) * ri
					}
					var got, want [8][8]float32
					tileTermsGo(&want, a, &ao, rt, bp)
					tileTerms(&got, a, &ao, rt, bp)
					for q := range got {
						for j := range got[q] {
							gv, wv := got[q][j], want[q][j]
							g, w := math.Float32bits(gv), math.Float32bits(wv)
							if g != w && !(f.twoNaNs && gv != gv && wv != wv) {
								t.Fatalf("%s k=%d m=%d aT=%v: tile[%d][%d] = %#08x, tileTermsGo gives %#08x", f.name, k, m, aT, q, j, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkMatmulShapes runs MatmulFunc on the shapes that take most of a
// paper_figs pass's matmul time, half of A zero as after a ReLU. A shape is
// variant M×N×K: f is C = A·B, tn A stored K×M, nt B stored N×K. The shapes
// were found by timing every launch of one pass by shape (launches and host
// ms per pass) with a temporary timer around MatmulFunc, which is not kept.
// They fall on both sides of matmulLeaf's choice: the rows for
// nt_128x288x32, nt_32x576x64, tn_400x120x8 and f_8x120x400, tiles over Cᵀ
// (M < N) for nt_8x400x120 and f_20x10x800, tiles over C for the rest;
// f_20x10x800 also ends in a tile of four rows repeating its last.
func BenchmarkMatmulShapes(b *testing.B) {
	shapes := []struct {
		variant string
		m, n, k int
	}{
		{"tn", 150, 16, 200},
		{"tn", 25, 6, 1152},
		{"f", 200, 16, 150},
		{"f", 1152, 6, 25},
		{"tn", 144, 4, 256},
		{"f", 256, 4, 144},
		{"tn", 72, 8, 1024},
		{"f", 1024, 8, 72},
		{"f", 20, 10, 800},
		{"nt", 8, 400, 120},
		{"nt", 1152, 25, 6},
		{"tn", 288, 32, 128},
		{"f", 128, 32, 288},
		{"tn", 576, 64, 32},
		{"tn", 400, 120, 8},
		{"nt", 128, 288, 32},
		{"nt", 32, 576, 64},
		{"f", 8, 120, 400},
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%s_%dx%dx%d", s.variant, s.m, s.n, s.k), func(b *testing.B) {
			ctx := testGPU(sim.NewKernel()).CreateContext()
			e := &Exec{Ctx: ctx}
			rng := rand.New(rand.NewSource(35))
			for _, size := range []int{s.m * s.k, s.k * s.n, s.m * s.n} {
				ptr, err := ctx.MemAlloc(uint64(4 * size))
				if err != nil {
					b.Fatal(err)
				}
				v, err := e.F32(ptr, size)
				if err != nil {
					b.Fatal(err)
				}
				for i := range v {
					v[i] = float32(rng.NormFloat64())
				}
				if len(e.Args) == 0 {
					for i := range v {
						if rng.Intn(2) == 0 {
							v[i] = 0
						}
					}
				}
				e.Args = append(e.Args, ptr)
			}
			e.Args = append(e.Args, uint64(s.m), uint64(s.n), uint64(s.k))
			f := MatmulFunc(s.variant == "tn", s.variant == "nt")
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := f(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTransposeMatchesIndexing holds transpose to dst[c·rows+r] =
// src[r·cols+c] on shapes with and without 8×8 blocks, both edges, and more
// than one 256-column strip, and checks it writes nothing past cols·rows.
func TestTransposeMatchesIndexing(t *testing.T) {
	for _, rows := range []int{1, 7, 8, 9, 16, 23, 261} {
		for _, cols := range []int{1, 5, 8, 13, 64, 263, 520} {
			src := make([]float32, rows*cols)
			for i := range src {
				src[i] = float32(i)
			}
			dst := make([]float32, rows*cols+1)
			dst[rows*cols] = -1
			transpose(dst[:rows*cols], src, rows, cols)
			for r := range rows {
				for c := range cols {
					if got, want := dst[c*rows+r], src[r*cols+c]; got != want {
						t.Fatalf("%dx%d: dst[%d] = %v, want src[%d] = %v", rows, cols, c*rows+r, got, r*cols+c, want)
					}
				}
			}
			if dst[rows*cols] != -1 {
				t.Fatalf("%dx%d: wrote past the end", rows, cols)
			}
		}
	}
}
