// Package workload holds what every synthetic tensor of the reproduction is
// drawn from: a Filler. Its subpackages are the benchmark suites (rodinia,
// vtabench); dnn's datasets and initial weights and tvm's weights draw from
// it too.
//
// Virtual times never read these values (cost models read shapes and
// sizes), so the draws are defined for speed: one 64-bit PCG output gives
// two float32s or up to 48 bits' worth of int8s, and the values land in the
// buffer the device receives, never in a staging copy.
package workload

import (
	"math/bits"
	"math/rand/v2"
)

// fillStream is the PCG stream every Filler runs on; only the seed varies.
const fillStream = 0x6372_6f6e_7573 // "cronus"

// Filler draws values from one seeded stream. It holds no package state:
// two fillers with the same seed draw the same values, on any goroutine.
type Filler struct{ src rand.Source }

// NewFiller returns the filler of a seed: a PCG stream.
func NewFiller(seed uint64) *Filler { return &Filler{rand.NewPCG(seed, fillStream)} }

// NewFillerFrom returns a filler drawing from src, for a test that needs the
// values pinned (a source returning 1<<63|1<<23 draws every float at the
// middle of its range).
func NewFillerFrom(src rand.Source) *Filler { return &Filler{src} }

// Float32s fills dst with values uniform between lo and hi: each 64-bit
// draw u gives dst[i] from its top 24 bits and dst[i+1] from its low 24, as
// lo + float32(c·2⁻²⁴·(hi−lo)) for the 24-bit chunk c.
func (f *Filler) Float32s(dst []float32, lo, hi float32) {
	span := hi - lo
	const unit = 0x1p-24
	i := 0
	for ; i+1 < len(dst); i += 2 {
		u := f.src.Uint64()
		dst[i] = lo + float32(float32(u>>40)*unit*span)
		dst[i+1] = lo + float32(float32(u&(1<<24-1))*unit*span)
	}
	if i < len(dst) {
		dst[i] = lo + float32(float32(f.src.Uint64()>>40)*unit*span)
	}
}

// Int8s fills dst with int8 values in [lo, hi], as two's-complement bytes.
// With n = hi−lo+1, each 64-bit draw u gives the next k = ⌊48/bitlen(n)⌋
// values as lo plus the leading base-n digits of the fraction u/2⁶⁴: the
// digit is the high word of x·n and x its low word, starting from x = u.
// The 16 or more bits left unread keep every digit within n/2¹⁶ of uniform.
func (f *Filler) Int8s(dst []byte, lo, hi int8) {
	n := uint64(int(hi) - int(lo) + 1)
	k := 48 / bits.Len64(n)
	for len(dst) > 0 {
		x := f.src.Uint64()
		m := min(k, len(dst))
		for i := range dst[:m] {
			var d uint64
			d, x = bits.Mul64(x, n)
			dst[i] = byte(int(lo) + int(d))
		}
		dst = dst[m:]
	}
}

// Intn returns one value in [0, n): ⌊c·n/2³²⌋ for the top 32 bits c of a
// draw. n must be positive and below 2³².
func (f *Filler) Intn(n int) int {
	return int((f.src.Uint64() >> 32) * uint64(n) >> 32)
}
