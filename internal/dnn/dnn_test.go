package dnn_test

import (
	"slices"
	"testing"

	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/dnn"
	"cronus/internal/gpu"
	"cronus/internal/sim"
)

func TestModelShapes(t *testing.T) {
	for _, m := range dnn.TrainingModels() {
		if len(m.Layers) == 0 {
			t.Fatalf("%s has no layers", m.Name)
		}
		if m.FLOPs(8) <= 0 {
			t.Fatalf("%s has zero FLOPs", m.Name)
		}
		for _, l := range m.Layers {
			if l.K <= 0 || l.N <= 0 || l.Spatial <= 0 {
				t.Fatalf("%s layer %s has bad dims %+v", m.Name, l.Name, l)
			}
		}
	}
	// Layer-count sanity versus the real architectures.
	if n := len(dnn.ResNet50().Layers); n < 45 || n > 55 {
		t.Errorf("ResNet50 layer count %d implausible", n)
	}
	if n := len(dnn.VGG16().Layers); n != 16 {
		t.Errorf("VGG16 has %d layers, want 16", n)
	}
	if n := len(dnn.DenseNet().Layers); n < 100 {
		t.Errorf("DenseNet has %d layers, want >100", n)
	}
}

// TestDatasetDeterministic: two instances of a dataset draw the same
// mini-batches into caller-owned buffers, a target row is one-hot, and the
// next batch redraws every buffer (stale targets are cleared).
func TestDatasetDeterministic(t *testing.T) {
	const batch, width = 4, 10
	draw := func(ds *dnn.Dataset) (in, tgt []float32) {
		in, tgt = make([]float32, batch*28*28), make([]float32, batch*width)
		ds.Batch(in, tgt, width)
		return in, tgt
	}
	ds := dnn.MNIST()
	a1, l1 := draw(ds)
	a2, l2 := draw(dnn.MNIST())
	if !slices.Equal(a1, a2) || !slices.Equal(l1, l2) {
		t.Fatal("dataset not deterministic across instances")
	}
	next := slices.Clone(l1)
	ds.Batch(a1, next, width)
	if slices.Equal(a1, a2) {
		t.Error("the second batch repeats the first's pixels")
	}
	for _, tgt := range [][]float32{l1, next} {
		for i := 0; i < batch; i++ {
			var ones, sum float32
			for _, v := range tgt[i*width : (i+1)*width] {
				if v == 1 {
					ones++
				}
				sum += v
			}
			if ones != 1 || sum != 1 {
				t.Errorf("target row %d = %v, want one-hot", i, tgt[i*width:(i+1)*width])
			}
		}
	}
	for _, v := range a1 {
		if v < -1 || v >= 1 {
			t.Fatalf("pixel %v outside [-1, 1)", v)
		}
	}
}

// nativeTrainer builds a trainer on an unprotected device.
func nativeTrainer(p *sim.Proc, model *dnn.Model, batch int) (*dnn.Trainer, error) {
	k := p.Kernel()
	costs := sim.DefaultCosts()
	dev := gpu.New(k, costs, gpu.TuringConfig("g"))
	ops, err := baseline.NewNativeCUDA(dev, costs, dnn.Cubin())
	if err != nil {
		return nil, err
	}
	return dnn.NewTrainer(p, ops, model, batch)
}

func TestTrainLeNetNativeLossFiniteAndWeightsMove(t *testing.T) {
	k := sim.NewKernel()
	var fail error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		tr, err := nativeTrainer(p, dnn.LeNet2(), 8)
		if err != nil {
			fail = err
			return
		}
		var losses []float32
		for i := 0; i < 3; i++ {
			loss, err := tr.Step(p)
			if err != nil {
				fail = err
				return
			}
			losses = append(losses, loss)
		}
		if losses[0] == losses[1] && losses[1] == losses[2] {
			t.Error("loss identical across steps — weights not updating")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
}

func TestAllModelsOneStepNative(t *testing.T) {
	for _, model := range dnn.TrainingModels() {
		model := model
		t.Run(model.Name, func(t *testing.T) {
			k := sim.NewKernel()
			var fail error
			k.Spawn("main", func(p *sim.Proc) {
				defer k.Stop()
				tr, err := nativeTrainer(p, model, 4)
				if err != nil {
					fail = err
					return
				}
				if _, err := tr.Step(p); err != nil {
					fail = err
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if fail != nil {
				t.Fatal(fail)
			}
		})
	}
}

func TestTrainLeNetOnCRONUSMatchesPaperOverheadBound(t *testing.T) {
	// Measure per-step virtual time natively.
	var nativeTime sim.Duration
	{
		k := sim.NewKernel()
		var fail error
		k.Spawn("main", func(p *sim.Proc) {
			defer k.Stop()
			tr, err := nativeTrainer(p, dnn.LeNet2(), 8)
			if err != nil {
				fail = err
				return
			}
			start := p.Now()
			for i := 0; i < 3; i++ {
				if _, err := tr.Step(p); err != nil {
					fail = err
					return
				}
			}
			nativeTime = sim.Duration(p.Now() - start)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if fail != nil {
			t.Fatal(fail)
		}
	}

	// Same steps inside a CRONUS CUDA mEnclave over sRPC.
	var cronusTime sim.Duration
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "train")
		if err != nil {
			return err
		}
		conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: dnn.Cubin(), RingPages: 65})
		if err != nil {
			return err
		}
		defer conn.Close(p)
		tr, err := dnn.NewTrainer(p, conn, dnn.LeNet2(), 8)
		if err != nil {
			return err
		}
		start := p.Now()
		for i := 0; i < 3; i++ {
			if _, err := tr.Step(p); err != nil {
				return err
			}
		}
		cronusTime = sim.Duration(p.Now() - start)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(cronusTime-nativeTime) / float64(nativeTime)
	t.Logf("native %v, cronus %v, overhead %.2f%%", nativeTime, cronusTime, overhead*100)
	if overhead > 0.15 {
		t.Errorf("CRONUS training overhead %.1f%% exceeds the paper's ~7%% band", overhead*100)
	}
	if overhead < 0 {
		t.Error("CRONUS cannot be faster than native")
	}
}

func TestGradientBytesAccounting(t *testing.T) {
	k := sim.NewKernel()
	var fail error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		tr, err := nativeTrainer(p, dnn.LeNet2(), 8)
		if err != nil {
			fail = err
			return
		}
		want := 0
		for _, l := range dnn.LeNet2().Layers {
			want += l.K * l.N * 4
		}
		if tr.GradientBytes() != want {
			t.Errorf("gradient bytes %d, want %d", tr.GradientBytes(), want)
		}
		if len(tr.GradPtrs()) != len(dnn.LeNet2().Layers) {
			t.Error("gradient pointer count mismatch")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
}
