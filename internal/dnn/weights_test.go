package dnn_test

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"cronus/internal/dnn"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/workload"
)

// perTrainerDraw is the initialisation every NewTrainer drew for itself
// before the weights became the Model's, on the filler's definition: per
// layer, K·N He-uniform floats in [−√(6/K), √(6/K)) from one seed-42 filler
// running through the layers in order — as the bytes device memory holds.
func perTrainerDraw(m *dnn.Model) [][]byte {
	f := workload.NewFiller(42)
	var draw [][]byte
	for _, layer := range m.Layers {
		scale := float32(math.Sqrt(6 / float64(layer.K)))
		w := make([]float32, layer.K*layer.N)
		f.Float32s(w, -scale, scale)
		draw = append(draw, gpu.Bytes(w))
	}
	return draw
}

// trainerWeights builds a trainer on model in a simulation of its own,
// returns its device weights as NewTrainer left them, then trains it two
// steps — moving those device weights, and nothing the model shares.
func trainerWeights(model *dnn.Model) (w [][]byte, err error) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		var tr *dnn.Trainer
		if tr, err = nativeTrainer(p, model, 4); err != nil {
			return
		}
		var ck *dnn.Checkpoint
		if ck, err = tr.Checkpoint(p); err != nil {
			return
		}
		for _, l := range ck.Weights {
			w = append(w, gpu.Bytes(l))
		}
		for i := 0; i < 2 && err == nil; i++ {
			_, err = tr.Step(p)
		}
	})
	if runErr := k.Run(); runErr != nil {
		return nil, runErr
	}
	return w, err
}

// TestTrainerWeightsAreThePerTrainerDraw: for each training model, two
// trainers built on one *Model on concurrent simulations, and a third built
// after both have trained, start from device weights byte-equal to the draw
// each trainer used to make for itself.
func TestTrainerWeightsAreThePerTrainerDraw(t *testing.T) {
	for _, model := range dnn.TrainingModels() {
		want := perTrainerDraw(model)
		got := make([][][]byte, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = trainerWeights(model)
			}()
		}
		wg.Wait()
		got[2], errs[2] = trainerWeights(model)
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s trainer %d: %v", model.Name, i, errs[i])
			}
			if len(got[i]) != len(want) {
				t.Fatalf("%s trainer %d: %d weight buffers for %d layers", model.Name, i, len(got[i]), len(want))
			}
			for l := range want {
				if !bytes.Equal(got[i][l], want[l]) {
					t.Errorf("%s trainer %d layer %d %s: initial weights differ from the per-trainer draw", model.Name, i, l, model.Layers[l].Name)
				}
			}
		}
	}
}
