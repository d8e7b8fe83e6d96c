package dnn

import "math/rand"

// LayerBuffers is one layer's device state, for tests that inspect values.
type LayerBuffers struct {
	Out, Dout, Dw uint64 // device pointers
	OutLen, WLen  int    // element counts
}

// Buffers returns layer l's activation, activation-gradient and
// weight-gradient buffers.
func (t *Trainer) Buffers(l int) LayerBuffers {
	return LayerBuffers{Out: t.out[l], Dout: t.dout[l], Dw: t.dw[l], OutLen: t.outLen[l], WLen: t.wLen[l]}
}

// halfSource makes rand.Rand.Float32 return exactly 0.5 on every draw, which
// Dataset.Batch maps to a pixel value of 0.
type halfSource struct{}

func (halfSource) Int63() int64 { return 1 << 52 }
func (halfSource) Seed(int64)   {}

// ZeroInputs makes every later mini-batch all-zero pixels.
func (t *Trainer) ZeroInputs() { t.ds.rng = rand.New(halfSource{}) }
