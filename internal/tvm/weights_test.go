package tvm

import (
	"math/rand"
	"testing"
)

// scriptedSource plays back Int63 values, then falls through to seed 99.
type scriptedSource struct {
	script []int64
	rand.Source
}

func (s *scriptedSource) Int63() int64 {
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.Source.Int63()
}

// TestIntn7IsRandIntn7: intn7 on a source returns what rand.New on an
// identical source returns from Intn(7), draw for draw — including the two
// Int31 values Int31n rejects and redraws, which seed 99 reaches only once
// in 2^30 draws, so a script puts them first.
func TestIntn7IsRandIntn7(t *testing.T) {
	script := []int64{0x7ffffffe << 32, 0x7fffffff<<32 | 0xffffffff, 0x7ffffffd << 32, 0, 6 << 32, 7 << 32, 0x7ffffffe << 32, 1 << 32}
	ours := &scriptedSource{script: script, Source: rand.NewSource(99)}
	ref := rand.New(&scriptedSource{script: script, Source: rand.NewSource(99)})
	for i := 0; i < 1<<16; i++ {
		if got, want := intn7(ours), ref.Intn(7); int(got) != want {
			t.Fatalf("draw %d: intn7 = %d, rand.Intn(7) = %d", i, got, want)
		}
	}
}
