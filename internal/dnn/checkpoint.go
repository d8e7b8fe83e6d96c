package dnn

import (
	"fmt"

	"cronus/internal/gpu"
	"cronus/internal/sim"
)

// Checkpoint is a host-side snapshot of a trainer's model state. The paper
// leaves application-data recovery to checkpointing techniques integrated
// above CRONUS (§III-B, §IV-D): after a partition failure the task is
// resubmitted and restores from its last checkpoint instead of restarting
// training from scratch.
type Checkpoint struct {
	Model   string
	Batch   int
	Step    int
	Weights [][]float32 // per layer
}

// Checkpoint downloads all weights synchronously.
func (t *Trainer) Checkpoint(p *sim.Proc) (*Checkpoint, error) {
	ck := &Checkpoint{
		Model:   t.model.Name,
		Batch:   t.batch,
		Step:    t.Steps,
		Weights: make([][]float32, len(t.w)),
	}
	for l := range t.w {
		raw, err := t.ops.DtoH(p, t.w[l], t.wLen[l]*4)
		if err != nil {
			return nil, fmt.Errorf("dnn: checkpoint layer %d: %w", l, err)
		}
		ck.Weights[l] = gpu.UnpackF32(raw)
	}
	return ck, nil
}

// Restore uploads a checkpoint into this trainer (same model and batch).
func (t *Trainer) Restore(p *sim.Proc, ck *Checkpoint) error {
	if ck.Model != t.model.Name {
		return fmt.Errorf("dnn: checkpoint is for %s, trainer runs %s", ck.Model, t.model.Name)
	}
	if len(ck.Weights) != len(t.w) {
		return fmt.Errorf("dnn: checkpoint has %d layers, trainer has %d", len(ck.Weights), len(t.w))
	}
	for l, w := range ck.Weights {
		if len(w) != t.wLen[l] {
			return fmt.Errorf("dnn: layer %d shape mismatch (%d vs %d)", l, len(w), t.wLen[l])
		}
		if err := t.ops.HtoD(p, t.w[l], gpu.Bytes(w)); err != nil {
			return fmt.Errorf("dnn: restore layer %d: %w", l, err)
		}
	}
	if err := t.ops.Sync(p); err != nil {
		return err
	}
	t.Steps = ck.Step
	return nil
}
