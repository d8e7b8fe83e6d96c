package dnn

import (
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/workload"
)

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

// Weights downloads every layer's weights.
func (t *Trainer) Weights(p *sim.Proc) ([][]float32, error) {
	w := make([][]float32, len(t.w))
	for l := range t.w {
		raw, err := t.ops.DtoH(p, t.w[l], t.wLen[l]*4)
		if err != nil {
			return nil, err
		}
		w[l] = gpu.UnpackF32(raw)
	}
	return w, nil
}

// SetWeights uploads one slice per layer, in the trainer's shapes, and waits
// for the copies.
func (t *Trainer) SetWeights(p *sim.Proc, w [][]float32) error {
	for l := range w {
		if err := t.ops.HtoD(p, t.w[l], gpu.Bytes(w[l])); err != nil {
			return err
		}
	}
	return t.ops.Sync(p)
}

// halfSource draws 1<<63|1<<23 every time: both 24-bit halves a Float32s
// draw reads are 2²³, the middle of the range, which Dataset.Batch maps to a
// pixel value of exactly 0.
type halfSource struct{}

func (halfSource) Uint64() uint64 { return 1<<63 | 1<<23 }

// ZeroInputs makes every later mini-batch all-zero pixels.
func (t *Trainer) ZeroInputs() { t.ds.fill = workload.NewFillerFrom(halfSource{}) }
