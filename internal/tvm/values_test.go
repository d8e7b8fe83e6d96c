package tvm_test

import (
	"hash/fnv"
	"testing"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/experiments"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// uploadSum hashes every HtoD payload, in order.
type uploadSum struct {
	accel.NPU
	sum uint64
}

func (u *uploadSum) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	h := fnv.New64a()
	h.Write(data)
	u.sum = u.sum*31 + h.Sum64()
	return u.NPU.HtoD(p, dst, data)
}

// fig10bCell compiles g and runs one inference on system as a Fig 10b cell
// does, returning the cell's virtual time, the inference latency and the
// hash of what it uploaded.
func fig10bCell(t *testing.T, g *tvm.Graph, system baseline.System) (total, lat sim.Duration, sum uint64) {
	t.Helper()
	u := &uploadSum{}
	total, err := experiments.RunOnNPU(system, nil, func(p *sim.Proc, ops accel.NPU) error {
		u.NPU = ops
		e, err := tvm.Compile(p, u, g)
		if err != nil {
			return err
		}
		start := p.Now()
		if _, err := e.Infer(p, make([]byte, e.InLen)); err != nil {
			return err
		}
		lat = sim.Duration(p.Now() - start)
		return nil
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", g.Name, system, err)
	}
	return total, lat, u.sum
}

// TestVirtualTimeIgnoresValues: every Fig 10b graph compiles and infers in
// bit-equal virtual time on each NPU system with weights from another
// filler seed, which does change the weights uploaded.
func TestVirtualTimeIgnoresValues(t *testing.T) {
	shipped, other := tvm.InferenceGraphs(), tvm.InferenceGraphs()
	for i, g := range shipped {
		other[i].DrawWeightsFrom(0xdecaf)
		for _, system := range experiments.NPUSystems {
			total0, lat0, sum0 := fig10bCell(t, g, system)
			total1, lat1, sum1 := fig10bCell(t, other[i], system)
			if total0 != total1 || lat0 != lat1 {
				t.Errorf("%s on %s: %v total / %v inference under another filler seed, %v / %v under the shipped one",
					g.Name, system, total1, lat1, total0, lat0)
			}
			if sum0 == sum1 {
				t.Errorf("%s on %s: another filler seed uploaded the same weights", g.Name, system)
			}
		}
	}
}
