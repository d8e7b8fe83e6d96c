package dnn

import (
	"fmt"
	"math"
	"sync"

	"cronus/internal/workload"
)

// Layer is one trainable layer lowered to its im2col matmul shape: for a
// batch of size B the forward pass computes Out[B·Spatial, N] =
// In[B·Spatial, K] × W[K, N] followed by a ReLU (except the classifier).
type Layer struct {
	Name    string
	Spatial int // output positions per sample (H·W); 1 for fully connected
	K       int // contraction size (Cin·k² or input features)
	N       int // output channels / features
}

// Rows returns the matmul M dimension at a batch size.
func (l Layer) Rows(batch int) int { return batch * l.Spatial }

// FLOPs returns the forward FLOPs of the layer at a batch size.
func (l Layer) FLOPs(batch int) float64 {
	return float64(2 * float64(l.Rows(batch)) * float64(l.K) * float64(l.N))
}

// Model is a structural DNN definition. Share one by pointer; a Model is not
// copied or its Layers changed once a trainer has been built on it.
type Model struct {
	Name    string
	Dataset string
	// InputFloats is the per-sample input size the host uploads each
	// iteration (dataset-determined).
	InputFloats int
	Layers      []Layer

	init    sync.Once
	weights [][]float32 // see initialWeights
}

// initialWeights returns each layer's initial weights: He-uniform, K·N floats
// in [−√(6/K), √(6/K)) drawn by the filler of seed 42 running through the
// layers in order (workload.Filler.Float32s), uploaded as they lie. Weight
// variance 2/K makes a layer's pre-activation variance twice its input's
// second moment, and the ReLU that follows halves it again — activations and
// gradients keep their scale through all ~100 layers. A tighter bound (say
// ±1/(2√K), variance 1/(12K)) shrinks them ~24× per layer until the backward
// pass multiplies subnormals, which a CPU does in microcode at a fraction of
// its arithmetic speed.
//
// The weights are a function of the layers alone, so they are drawn once and
// shared, read-only, by every trainer built on the model — on whichever
// simulation, concurrently or not, as tvm.Graph shares its weights.
func (m *Model) initialWeights() [][]float32 {
	m.init.Do(func() {
		f := workload.NewFiller(42)
		m.weights = make([][]float32, len(m.Layers))
		for l, layer := range m.Layers {
			scale := float32(math.Sqrt(6 / float64(layer.K)))
			m.weights[l] = make([]float32, layer.K*layer.N)
			f.Float32s(m.weights[l], -scale, scale)
		}
	})
	return m.weights
}

// String implements fmt.Stringer.
func (m *Model) String() string {
	return fmt.Sprintf("%s(%d layers, %s)", m.Name, len(m.Layers), m.Dataset)
}

// The models below are the paper's four training networks (§VI-C), with
// channel and spatial dimensions scaled down by the noted factors so the
// simulation's functional matmuls stay laptop-sized. Layer counts and the
// relative size distribution across layers — which determine the per
// iteration RPC/kernel stream CRONUS's overhead applies to — follow the
// real architectures.

// LeNet2 is LeNet on MNIST (28×28 grayscale): 2 conv + 3 FC layers.
func LeNet2() *Model {
	return &Model{
		Name:        "LeNet-2",
		Dataset:     "MNIST",
		InputFloats: 28 * 28,
		Layers: []Layer{
			{Name: "conv1", Spatial: 144, K: 25, N: 6},  // 5×5×1 → 6
			{Name: "conv2", Spatial: 25, K: 150, N: 16}, // 5×5×6 → 16
			{Name: "fc1", Spatial: 1, K: 400, N: 120},
			{Name: "fc2", Spatial: 1, K: 120, N: 84},
			{Name: "fc3", Spatial: 1, K: 84, N: 10},
		},
	}
}

// resBlock appends a bottleneck block (1×1, 3×3, 1×1 convs).
func resBlock(layers []Layer, idx, spatial, cin, cmid, cout int) []Layer {
	return append(layers,
		Layer{Name: fmt.Sprintf("res%d.a", idx), Spatial: spatial, K: cin, N: cmid},
		Layer{Name: fmt.Sprintf("res%d.b", idx), Spatial: spatial, K: cmid * 9, N: cmid},
		Layer{Name: fmt.Sprintf("res%d.c", idx), Spatial: spatial, K: cmid, N: cout},
	)
}

// ResNet50 on CIFAR-10, channels scaled /16, spatial scaled /4.
func ResNet50() *Model {
	var ls []Layer
	ls = append(ls, Layer{Name: "stem", Spatial: 64, K: 3 * 49, N: 16})
	idx := 0
	stage := func(blocks, spatial, cin, cmid, cout int) {
		for b := 0; b < blocks; b++ {
			in := cout
			if b == 0 {
				in = cin
			}
			ls = resBlock(ls, idx, spatial, in, cmid, cout)
			idx++
		}
	}
	stage(3, 64, 16, 8, 16)
	stage(4, 16, 16, 16, 32)
	stage(6, 8, 32, 32, 64)
	stage(3, 2, 64, 64, 128)
	ls = append(ls, Layer{Name: "fc", Spatial: 1, K: 128, N: 10})
	return &Model{Name: "ResNet50", Dataset: "CIFAR-10", InputFloats: 3 * 32 * 32, Layers: ls}
}

// VGG16 on CIFAR-10: 13 conv + 3 FC, channels scaled /8.
func VGG16() *Model {
	var ls []Layer
	conv := func(name string, spatial, cin, cout int) {
		ls = append(ls, Layer{Name: name, Spatial: spatial, K: cin * 9, N: cout})
	}
	conv("c1.1", 64, 3, 8)
	conv("c1.2", 64, 8, 8)
	conv("c2.1", 16, 8, 16)
	conv("c2.2", 16, 16, 16)
	conv("c3.1", 4, 16, 32)
	conv("c3.2", 4, 32, 32)
	conv("c3.3", 4, 32, 32)
	conv("c4.1", 2, 32, 64)
	conv("c4.2", 2, 64, 64)
	conv("c4.3", 2, 64, 64)
	conv("c5.1", 1, 64, 64)
	conv("c5.2", 1, 64, 64)
	conv("c5.3", 1, 64, 64)
	ls = append(ls,
		Layer{Name: "fc1", Spatial: 1, K: 64, N: 128},
		Layer{Name: "fc2", Spatial: 1, K: 128, N: 128},
		Layer{Name: "fc3", Spatial: 1, K: 128, N: 10},
	)
	return &Model{Name: "VGG16", Dataset: "CIFAR-10", InputFloats: 3 * 32 * 32, Layers: ls}
}

// DenseNet on ImageNet (input scaled to 64×64, growth rate scaled to 4):
// dense blocks of many small convs — the layer-count-heavy workload.
func DenseNet() *Model {
	var ls []Layer
	ls = append(ls, Layer{Name: "stem", Spatial: 64, K: 3 * 49, N: 8})
	growth := 4
	ch := 8
	idx := 0
	block := func(n, spatial int) {
		for i := 0; i < n; i++ {
			ls = append(ls,
				Layer{Name: fmt.Sprintf("d%d.1x1", idx), Spatial: spatial, K: ch, N: 4 * growth},
				Layer{Name: fmt.Sprintf("d%d.3x3", idx), Spatial: spatial, K: 4 * growth * 9, N: growth},
			)
			ch += growth
			idx++
		}
	}
	trans := func(spatial int) {
		ch /= 2
		ls = append(ls, Layer{Name: fmt.Sprintf("t%d", idx), Spatial: spatial, K: ch * 2, N: ch})
	}
	block(6, 16)
	trans(16)
	block(12, 4)
	trans(4)
	block(16, 2)
	trans(2)
	block(16, 1)
	ls = append(ls, Layer{Name: "fc", Spatial: 1, K: ch, N: 100})
	return &Model{Name: "DenseNet", Dataset: "ImageNet", InputFloats: 3 * 64 * 64, Layers: ls}
}

// TrainingModels returns the four Figure 8 networks in paper order.
func TrainingModels() []*Model {
	return []*Model{LeNet2(), ResNet50(), VGG16(), DenseNet()}
}
