package dnn

import (
	"fmt"
	"math"

	"cronus/internal/accel"
	"cronus/internal/gpu"
	"cronus/internal/sim"
)

// Trainer runs mini-batch SGD for one model on one CUDA execution context
// (CRONUS enclave, a baseline, or native). Each Step emits the full per
// iteration stream a framework like PyTorch would: input upload, one
// forward matmul + activation per layer, a loss readback (the iteration's
// synchronization point), backward matmuls, SGD weight updates, and a final
// barrier.
type Trainer struct {
	ops   accel.CUDA
	model *Model
	batch int
	ds    *Dataset
	lr    float32

	x    uint64 // raw input staging (batch × InputFloats)
	tgt  uint64 // target one-hot block (last layer M×N)
	loss uint64 // scalar loss cell

	// The host side of x and tgt: every step draws its mini-batch into
	// these and uploads them as they lie (HtoD leaves them reusable).
	inputs, targets []float32

	w, in, out     []uint64 // per layer: weights, im2col input, output
	dw, din, dout  []uint64 // per layer gradients
	inLen, outLen  []int    // element counts
	wLen           []int
	Steps          int
	BytesPerUpload int
}

// NewTrainer allocates and initializes all device state through ops.
func NewTrainer(p *sim.Proc, ops accel.CUDA, model *Model, batch int) (*Trainer, error) {
	if batch <= 0 {
		batch = 8
	}
	t := &Trainer{
		ops:   ops,
		model: model,
		batch: batch,
		ds:    ForModel(model),
		lr:    1e-4,
	}
	n := len(model.Layers)
	t.w = make([]uint64, n)
	t.in = make([]uint64, n)
	t.out = make([]uint64, n)
	t.dw = make([]uint64, n)
	t.din = make([]uint64, n)
	t.dout = make([]uint64, n)
	t.inLen = make([]int, n)
	t.outLen = make([]int, n)
	t.wLen = make([]int, n)

	alloc := func(elems int) (uint64, error) {
		return ops.MemAlloc(p, uint64(elems)*4)
	}
	var err error
	if t.x, err = alloc(batch * model.InputFloats); err != nil {
		return nil, err
	}
	t.BytesPerUpload = batch * model.InputFloats * 4
	init := model.initialWeights()
	for l, layer := range model.Layers {
		m := layer.Rows(batch)
		t.inLen[l] = m * layer.K
		t.outLen[l] = m * layer.N
		t.wLen[l] = layer.K * layer.N
		if t.w[l], err = alloc(t.wLen[l]); err != nil {
			return nil, err
		}
		if t.in[l], err = alloc(t.inLen[l]); err != nil {
			return nil, err
		}
		if t.out[l], err = alloc(t.outLen[l]); err != nil {
			return nil, err
		}
		if t.dw[l], err = alloc(t.wLen[l]); err != nil {
			return nil, err
		}
		if t.din[l], err = alloc(t.inLen[l]); err != nil {
			return nil, err
		}
		if t.dout[l], err = alloc(t.outLen[l]); err != nil {
			return nil, err
		}
		if err := ops.HtoD(p, t.w[l], gpu.Bytes(init[l])); err != nil {
			return nil, err
		}
	}
	last := n - 1
	if t.tgt, err = alloc(t.outLen[last]); err != nil {
		return nil, err
	}
	if t.loss, err = alloc(1); err != nil {
		return nil, err
	}
	t.inputs = make([]float32, batch*model.InputFloats)
	t.targets = make([]float32, t.outLen[last])
	if err := ops.Sync(p); err != nil {
		return nil, err
	}
	return t, nil
}

// Step runs one training iteration and returns the (synchronously read)
// scalar loss.
func (t *Trainer) Step(p *sim.Proc) (float32, error) {
	m := t.model
	n := len(m.Layers)
	last := n - 1

	// ① Upload the mini-batch (the data enters through the protected
	// channel; volume is the dataset's true per-batch size).
	t.ds.Batch(t.inputs, t.targets, m.Layers[last].N)
	if err := t.ops.HtoD(p, t.x, gpu.Bytes(t.inputs)); err != nil {
		return 0, err
	}
	// Device-side im2col of the raw input into layer 0's input layout.
	if err := t.ops.Launch(p, "im2col", gpu.Dim{t.inLen[0], 1, 1},
		t.x, t.in[0], uint64(len(t.inputs))); err != nil {
		return 0, err
	}

	// ② Forward.
	for l, layer := range m.Layers {
		mm := layer.Rows(t.batch)
		if err := t.ops.Launch(p, "matmul_f", gpu.Dim{1, 1, 1},
			t.in[l], t.w[l], t.out[l], uint64(mm), uint64(layer.N), uint64(layer.K)); err != nil {
			return 0, err
		}
		if l < last {
			if err := t.ops.Launch(p, "relu", gpu.Dim{t.outLen[l], 1, 1}, t.out[l], t.out[l]); err != nil {
				return 0, err
			}
			if err := t.ops.Launch(p, "im2col", gpu.Dim{t.inLen[l+1], 1, 1},
				t.out[l], t.in[l+1], uint64(t.outLen[l])); err != nil {
				return 0, err
			}
		}
	}

	// ③ Loss: dout_last = (logits - onehot)/batch; loss = Σ dout_last.
	if err := t.ops.HtoD(p, t.tgt, gpu.Bytes(t.targets)); err != nil {
		return 0, err
	}
	if err := t.ops.Launch(p, "sub", gpu.Dim{t.outLen[last], 1, 1}, t.out[last], t.tgt, t.dout[last]); err != nil {
		return 0, err
	}
	if err := t.ops.Launch(p, "scale", gpu.Dim{t.outLen[last], 1, 1}, t.dout[last], gpu.FloatBits(1/float32(t.batch))); err != nil {
		return 0, err
	}
	if err := t.ops.Launch(p, "reduce_sum", gpu.Dim{t.outLen[last], 1, 1}, t.dout[last], t.loss); err != nil {
		return 0, err
	}
	lossBytes, err := t.ops.DtoH(p, t.loss, 4) // the PyTorch loss.item() sync
	if err != nil {
		return 0, err
	}

	// ④ Backward + SGD update.
	for l := last; l >= 0; l-- {
		layer := m.Layers[l]
		mm := layer.Rows(t.batch)
		if l < last {
			// Gradient flows back through the reshape and the ReLU.
			if err := t.ops.Launch(p, "im2col", gpu.Dim{t.outLen[l], 1, 1},
				t.din[l+1], t.dout[l], uint64(t.inLen[l+1])); err != nil {
				return 0, err
			}
			if err := t.ops.Launch(p, "relu_bwd", gpu.Dim{t.outLen[l], 1, 1},
				t.out[l], t.dout[l], t.dout[l]); err != nil {
				return 0, err
			}
		}
		// dW = Xᵀ·dY; dX = dY·Wᵀ.
		if err := t.ops.Launch(p, "matmul_tn", gpu.Dim{1, 1, 1},
			t.in[l], t.dout[l], t.dw[l], uint64(layer.K), uint64(layer.N), uint64(mm)); err != nil {
			return 0, err
		}
		if err := t.ops.Launch(p, "matmul_nt", gpu.Dim{1, 1, 1},
			t.dout[l], t.w[l], t.din[l], uint64(mm), uint64(layer.K), uint64(layer.N)); err != nil {
			return 0, err
		}
		if err := t.ops.Launch(p, "saxpy", gpu.Dim{t.wLen[l], 1, 1},
			t.dw[l], t.w[l], gpu.FloatBits(-t.lr)); err != nil {
			return 0, err
		}
	}

	// ⑤ End-of-iteration barrier.
	if err := t.ops.Sync(p); err != nil {
		return 0, err
	}
	t.Steps++
	loss := gpu.UnpackF32(lossBytes)[0]
	if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
		return loss, fmt.Errorf("dnn: non-finite loss at step %d", t.Steps)
	}
	return loss, nil
}

// GradientBytes returns the total gradient volume exchanged per iteration
// in data-parallel training (Figure 11b's all-reduce payload).
func (t *Trainer) GradientBytes() int {
	total := 0
	for _, n := range t.wLen {
		total += n * 4
	}
	return total
}

// GradPtrs exposes the per-layer gradient buffers (multi-GPU exchange).
func (t *Trainer) GradPtrs() []uint64 { return t.dw }
