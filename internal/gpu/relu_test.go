package gpu

import (
	"math"
	"math/rand"
	"testing"
)

// maskEdges are the bit patterns where negMask's and PosMask's ranges start
// and end: ±0, the subnormals nearest them and the largest, the largest
// normals, ±Inf, the NaNs nearest ±Inf and the last NaNs.
var maskEdges = []uint32{
	0x00000000, 0x00000001, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff, 0x7f800000, 0x7f800001, 0x7fc00000, 0x7fffffff,
	0x80000000, 0x80000001, 0x807fffff, 0x80800000, 0xbf800000, 0xff7fffff, 0xff800000, 0xff800001, 0xffc00000, 0xffffffff,
}

// TestSignMasksMatchComparisons: negMask(b) is all ones exactly when the
// float with bits b compares below zero, PosMask exactly when it compares
// above, and nonZero is 1 exactly when it compares unequal to zero — over
// every edge pattern and a million random ones.
func TestSignMasksMatchComparisons(t *testing.T) {
	mask := func(cond bool) uint32 {
		if cond {
			return 0xffffffff
		}
		return 0
	}
	check := func(b uint32) {
		v := math.Float32frombits(b)
		if got, want := negMask(b), mask(v < 0); got != want {
			t.Errorf("negMask(%#08x) = %#x, %v < 0 says %#x", b, got, v, want)
		}
		if got, want := PosMask(b), mask(v > 0); got != want {
			t.Errorf("PosMask(%#08x) = %#x, %v > 0 says %#x", b, got, v, want)
		}
		if got, want := nonZero(b), int(mask(v != 0)&1); got != want {
			t.Errorf("nonZero(%#08x) = %d, %v != 0 says %d", b, got, v, want)
		}
	}
	for _, b := range maskEdges {
		for d := uint32(0); d < 3; d++ {
			check(b + d)
			check(b - d)
		}
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 1<<20; i++ {
		check(rng.Uint32())
	}
}

// TestReLUMatchesBranch holds relu to the loop it replaced, bit for bit: -0
// and every NaN pass through, -Inf and negative subnormals become +0.
func TestReLUMatchesBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	x := make([]float32, 0, 1<<16)
	for _, b := range maskEdges {
		x = append(x, math.Float32frombits(b))
	}
	for len(x) < cap(x) {
		x = append(x, math.Float32frombits(rng.Uint32()))
	}
	want := make([]float32, len(x))
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		want[i] = v
	}
	got := make([]float32, len(x))
	relu(got, x)
	for i := range x {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("relu(%#08x) = %#08x, the branch gives %#08x", math.Float32bits(x[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	relu(x, x) // in place, as the trainer runs it
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(want[i]) {
			t.Fatalf("relu in place: element %d = %#08x, the branch gives %#08x", i, math.Float32bits(x[i]), math.Float32bits(want[i]))
		}
	}
}
