// Package dnn is the minimal DNN training and inference framework used to
// reproduce the paper's PyTorch workloads (§VI-C): structural definitions of
// LeNet-2, ResNet50, VGG16 and DenseNet, a GPU trainer that emits the same
// kind of kernel/memcpy streams per iteration (forward matmuls, activation
// kernels, backward matmuls, SGD updates), and deterministic synthetic
// datasets standing in for MNIST, CIFAR-10 and ImageNet.
//
// Convolutions are lowered to their im2col matmul shapes, and all model
// dimensions are scaled down by a documented factor so simulations stay
// laptop-sized; the *stream structure* per iteration (layer count, kernel
// sizes relative to each other, sync points) is what the paper's overhead
// measurements are sensitive to, and that is preserved.
package dnn

import (
	"math"

	"cronus/internal/gpu"
	"cronus/internal/sim"
)

// kernelDemand models how many SMs a layer's kernel occupies: small layers
// (LeNet) underfill the GPU — which is exactly why spatial sharing pays off
// in Figure 11a — while large conv layers saturate it.
func kernelDemand(sms float64, outElems int) float64 {
	d := float64(outElems) / 96
	if d < 10 {
		d = 10
	}
	if d > sms {
		d = sms
	}
	return d
}

// trainKernelFloor is the minimum execution time of a training kernel:
// small-layer kernels are memory-latency bound, not FLOP bound.
const trainKernelFloor = 40 * sim.Microsecond

// trainCost builds the cost model for a backward/forward matmul-style
// kernel: 2*M*N*K flops at a demand derived from the output size, floored
// at the latency-bound minimum.
func trainCost(flops func(args []uint64) float64, outElems func(args []uint64) int) func(float64, gpu.Dim, []uint64) gpu.LaunchCost {
	return func(sms float64, _ gpu.Dim, args []uint64) gpu.LaunchCost {
		demand := kernelDemand(sms, outElems(args))
		rate := 8000.0 * demand / sms // FLOPs per ns at this occupancy
		work := sim.Duration(flops(args) / rate)
		if work < trainKernelFloor {
			work = trainKernelFloor
		}
		return gpu.LaunchCost{Work: work, SMDemand: demand}
	}
}

func init() { RegisterKernels() }

// RegisterKernels installs the training kernels (in addition to the
// standard library): transposed matmuls for the backward pass and the ReLU
// gradient. It runs at package init; a test that replaced one of them calls
// it again to put the shipped ones back.
func RegisterKernels() {
	// matmul_f: C[M,N] = A[M,K] × B[K,N]; args a, b, c, M, N, K. The std
	// "matmul" body (gpu.MatmulFunc) under an occupancy model driven by
	// layer size; matmul_tn and matmul_nt are its transposed-operand forms
	// for the backward pass.
	cost := trainCost(
		func(args []uint64) float64 {
			return 2 * float64(args[3]) * float64(args[4]) * float64(args[5])
		},
		func(args []uint64) int { return int(args[3] * args[4]) },
	)
	gpu.Register(&gpu.Kernel{Name: "matmul_f", Cost: cost, Func: gpu.MatmulFunc(false, false)}) // Y = X·W
	gpu.Register(&gpu.Kernel{Name: "matmul_tn", Cost: cost, Func: gpu.MatmulFunc(true, false)}) // dW = Xᵀ·dY, X passed K×M
	gpu.Register(&gpu.Kernel{Name: "matmul_nt", Cost: cost, Func: gpu.MatmulFunc(false, true)}) // dX = dY·Wᵀ, W passed N×K

	// im2col: dst[i] = src[i mod srcN] — the layout shuffle between a
	// layer's output and the next layer's im2col input (and its adjoint
	// on the backward pass). args src, dst, srcN; grid [dstN].
	gpu.Register(&gpu.Kernel{
		Name: "im2col",
		Cost: gpu.FlopCost(0.4, gpu.ElemFlops(1)),
		Func: func(e *gpu.Exec) error {
			srcN := e.Int(2)
			if srcN <= 0 {
				return nil
			}
			src, err := e.F32(e.Arg(0), srcN)
			if err != nil {
				return err
			}
			dst, err := e.F32(e.Arg(1), e.Grid.Elems())
			if err != nil {
				return err
			}
			// src repeated end to end until dst is full.
			for len(dst) > 0 {
				dst = dst[copy(dst, src):]
			}
			return nil
		},
	})

	// relu_bwd: dx[i] = x[i] > 0 ? dy[i] : 0 (a gpu.PosMask select); args
	// x, dy, dx; grid [n].
	gpu.Register(&gpu.Kernel{
		Name: "relu_bwd",
		Cost: gpu.FlopCost(0.4, gpu.ElemFlops(1)),
		Func: func(e *gpu.Exec) error {
			var x, dy, dx gpu.F32
			if err := e.F32s(e.Grid.Elems(), &x, &dy, &dx); err != nil {
				return err
			}
			reluBwd(dx, x, dy)
			return nil
		},
	})
}

// reluBwd stores x > 0 ? dy : 0 into dx, element by element; the three are
// the same length.
func reluBwd(dx, x, dy []float32) {
	x, dy = x[:len(dx)], dy[:len(dx)]
	for i := range dx {
		dx[i] = math.Float32frombits(math.Float32bits(dy[i]) & gpu.PosMask(math.Float32bits(x[i])))
	}
}

// Cubin returns the module image for training enclaves.
func Cubin() []byte {
	return gpu.BuildCubin(
		"matmul_f", "matmul_tn", "matmul_nt", "im2col",
		"relu", "relu_bwd", "sub", "saxpy", "scale", "reduce_sum",
	)
}
