package dnn

import "cronus/internal/workload"

// Dataset is a deterministic synthetic dataset generator standing in for
// MNIST / CIFAR-10 / ImageNet. Training-time measurements are independent of
// pixel content; what matters is the per-sample byte volume crossing into
// the enclave and onto the device each iteration, which the generator
// preserves.
type Dataset struct {
	Name       string
	SampleSize int // floats per sample
	Classes    int
	fill       *workload.Filler
}

// NewDataset creates a generator drawing from the filler of seed.
func NewDataset(name string, sampleSize, classes int, seed uint64) *Dataset {
	return &Dataset{
		Name:       name,
		SampleSize: sampleSize,
		Classes:    classes,
		fill:       workload.NewFiller(seed),
	}
}

// MNIST returns the MNIST stand-in (28×28×1, 10 classes).
func MNIST() *Dataset { return NewDataset("MNIST", 28*28, 10, 1) }

// CIFAR10 returns the CIFAR-10 stand-in (32×32×3, 10 classes).
func CIFAR10() *Dataset { return NewDataset("CIFAR-10", 3*32*32, 10, 2) }

// ImageNet returns the (scaled) ImageNet stand-in (64×64×3, 100 classes).
func ImageNet() *Dataset { return NewDataset("ImageNet", 3*64*64, 100, 3) }

// ForModel returns the dataset matching a model's declared dataset.
func ForModel(m *Model) *Dataset {
	switch m.Dataset {
	case "MNIST":
		return MNIST()
	case "CIFAR-10":
		return CIFAR10()
	default:
		return ImageNet()
	}
}

// Batch draws the next mini-batch into buffers the caller owns and reuses:
// inputs gets its len(inputs)/SampleSize samples' pixels, uniform in
// [−1, 1), and targets one row of width floats per sample, all zero but a 1
// at the sample's label (drawn after the pixels, in [0, Classes), modulo
// width).
func (d *Dataset) Batch(inputs, targets []float32, width int) {
	d.fill.Float32s(inputs, -1, 1)
	clear(targets)
	for i := 0; i < len(inputs)/d.SampleSize; i++ {
		targets[i*width+d.fill.Intn(d.Classes)%width] = 1
	}
}
