package tvm

import (
	"testing"

	"cronus/internal/baseline"
	"cronus/internal/npu"
	"cronus/internal/sim"
)

// TestLayerProgramsSizedOnce: Compile sizes each layer's program before its
// tiles append to it, so no program is copied as it grows.
func TestLayerProgramsSizedOnce(t *testing.T) {
	err := sim.Run(func(p *sim.Proc) error {
		costs := sim.DefaultCosts()
		ops := baseline.NewNativeNPU(npu.New(p.Kernel(), costs, npu.DefaultConfig("n")), costs)
		for _, g := range InferenceGraphs() {
			e, err := Compile(p, ops, g)
			if err != nil {
				return err
			}
			for i, prog := range e.progs {
				if len(prog) != cap(prog) {
					t.Errorf("%s layer %d: %d instructions in a program of capacity %d", g.Name, i, len(prog), cap(prog))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
