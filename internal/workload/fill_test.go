package workload

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// TestFloat32sDefinition holds Float32s to its documented definition on a
// raw PCG of the same seed and stream: the top then the low 24 bits of each
// draw, scaled into [lo, hi), and an odd tail from a draw's top bits.
func TestFloat32sDefinition(t *testing.T) {
	const lo, hi = -0.75, 2.5
	got := make([]float32, 1001)
	NewFiller(42).Float32s(got, lo, hi)
	pcg := rand.NewPCG(42, fillStream)
	for i := 0; i < len(got); i += 2 {
		u := pcg.Uint64()
		for j, c := range []uint64{u >> 40, u & (1<<24 - 1)} {
			if i+j == len(got) {
				break
			}
			want := float32(lo) + float32(float32(float64(c)/(1<<24))*float32(hi-lo))
			if math.Float32bits(got[i+j]) != math.Float32bits(want) {
				t.Fatalf("value %d = %v, the definition gives %v", i+j, got[i+j], want)
			}
			if got[i+j] < lo || got[i+j] > hi {
				t.Fatalf("value %d = %v outside [%v, %v]", i+j, got[i+j], lo, hi)
			}
		}
	}
}

// TestInt8sDefinition holds Int8s to the base-n digits of u/2⁶⁴, computed
// with big integers — ⌊u·nʲ⁺¹/2⁶⁴⌋ mod n is digit j — for value ranges of
// 7, 9 and 256 values, and checks a long draw stays in range and near
// uniform.
func TestInt8sDefinition(t *testing.T) {
	for _, r := range []struct{ lo, hi int8 }{{-3, 3}, {-4, 4}, {-128, 127}} {
		n := int64(int(r.hi) - int(r.lo) + 1)
		k := 48 / big.NewInt(n).BitLen()
		got := make([]byte, 10*k+3)
		NewFiller(99).Int8s(got, r.lo, r.hi)
		pcg := rand.NewPCG(99, fillStream)
		for i := 0; i < len(got); i += k {
			u := new(big.Int).SetUint64(pcg.Uint64())
			for j := 0; j < k && i+j < len(got); j++ {
				v := new(big.Int).Mul(u, new(big.Int).Exp(big.NewInt(n), big.NewInt(int64(j+1)), nil))
				v.Rsh(v, 64).Mod(v, big.NewInt(n))
				if want := byte(int(r.lo) + int(v.Int64())); got[i+j] != want {
					t.Fatalf("[%d, %d] value %d = %d, the definition gives %d", r.lo, r.hi, i+j, int8(got[i+j]), int8(want))
				}
			}
		}
		many := make([]byte, 1<<20)
		NewFiller(7).Int8s(many, r.lo, r.hi)
		counts := make(map[int8]int)
		for _, b := range many {
			v := int8(b)
			if v < r.lo || v > r.hi {
				t.Fatalf("[%d, %d]: value %d out of range", r.lo, r.hi, v)
			}
			counts[v]++
		}
		mean := float64(len(many)) / float64(n)
		for v := int(r.lo); v <= int(r.hi); v++ {
			if c := float64(counts[int8(v)]); math.Abs(c-mean) > 6*math.Sqrt(mean) {
				t.Errorf("[%d, %d]: %d drawn %v times, uniform is %v", r.lo, r.hi, v, c, mean)
			}
		}
	}
}

// TestIntnDefinition: Intn is ⌊c·n/2³²⌋ of a draw's top 32 bits.
func TestIntnDefinition(t *testing.T) {
	f, pcg := NewFiller(3), rand.NewPCG(3, fillStream)
	for i := 0; i < 1000; i++ {
		n := 1 + i%100
		want := int((pcg.Uint64() >> 32) * uint64(n) >> 32)
		if got := f.Intn(n); got != want || got < 0 || got >= n {
			t.Fatalf("draw %d: Intn(%d) = %d, the definition gives %d", i, n, got, want)
		}
	}
}

// midSource draws the middle of every range Float32s and Int8s map to.
type midSource struct{}

func (midSource) Uint64() uint64 { return 1<<63 | 1<<23 }

// TestSeedsAndPinnedSources: a seed names its values, another seed draws
// others, and a pinned source draws exactly the middle of a float range.
func TestSeedsAndPinnedSources(t *testing.T) {
	a, b, c := make([]float32, 64), make([]float32, 64), make([]float32, 64)
	NewFiller(1).Float32s(a, -1, 1)
	NewFiller(1).Float32s(b, -1, 1)
	NewFiller(2).Float32s(c, -1, 1)
	same, other := true, 0
	for i := range a {
		same = same && a[i] == b[i]
		if a[i] != c[i] {
			other++
		}
	}
	if !same || other < len(a)-1 {
		t.Errorf("seed 1 twice equal: %v; seed 2 differs in %d of %d values", same, other, len(a))
	}
	NewFillerFrom(midSource{}).Float32s(a, -1, 1)
	for i, v := range a {
		if v != 0 {
			t.Fatalf("pinned value %d = %v, want exactly 0", i, v)
		}
	}
}

func BenchmarkFillerInt8s(b *testing.B) {
	dst := make([]byte, 1<<20)
	f := NewFiller(99)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		f.Int8s(dst, -3, 3)
	}
}

func BenchmarkFillerFloat32s(b *testing.B) {
	dst := make([]float32, 1<<18)
	f := NewFiller(42)
	b.SetBytes(int64(4 * len(dst)))
	for i := 0; i < b.N; i++ {
		f.Float32s(dst, -1, 1)
	}
}
