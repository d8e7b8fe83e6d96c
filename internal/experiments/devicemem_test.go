package experiments

import (
	"runtime"
	"testing"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/dnn"
	"cronus/internal/sim"
)

// allocCounter counts the device memory a workload asks for.
type allocCounter struct {
	accel.CUDA
	bytes uint64
}

func (a *allocCounter) MemAlloc(p *sim.Proc, n uint64) (uint64, error) {
	a.bytes += n
	return a.CUDA.MemAlloc(p, n)
}

// TestFig8CellReusesDeviceMemory runs one Fig 8 cell — ResNet50 training on
// the native system, Figure8's defaults — twice in one process. The first
// run's platform gives its device memory back to the recycler when its
// kernel shuts down, so the second run takes every backing from there: it
// allocates (runtime.MemStats.TotalAlloc) at most a tenth of the device
// memory the cell asks for, where without the recycler it would allocate all
// of it again. Its virtual times are bit-equal to the first run's.
func TestFig8CellReusesDeviceMemory(t *testing.T) {
	model := dnn.ResNet50()
	type run struct {
		total, steps sim.Duration
		device       uint64 // bytes the cell's MemAllocs ask for
		heap         uint64 // bytes the run allocates on the host
	}
	cell := func() run {
		var r run
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		total, err := RunOnSystem(baseline.Native, dnn.Cubin(), nil, nil, func(p *sim.Proc, ops accel.CUDA) error {
			counted := &allocCounter{CUDA: ops}
			tr, err := dnn.NewTrainer(p, counted, model, 16)
			if err != nil {
				return err
			}
			start := p.Now()
			for it := 0; it < 3; it++ {
				if _, err := tr.Step(p); err != nil {
					return err
				}
			}
			r.steps, r.device = sim.Duration(p.Now()-start), counted.bytes
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		r.total, r.heap = total, ms.TotalAlloc-before
		return r
	}
	first := cell()
	second := cell()
	t.Logf("device memory asked for %d B; host bytes allocated: first run %d, second %d", first.device, first.heap, second.heap)
	if first.device < 1<<20 {
		t.Fatalf("the cell asks for only %d B of device memory: not a test of its reuse", first.device)
	}
	if second.heap > first.device/10 {
		t.Errorf("the second run allocated %d B, more than a tenth of the %d B of device memory the cell asks for", second.heap, first.device)
	}
	if second.total != first.total || second.steps != first.steps || second.device != first.device {
		t.Errorf("the second run's virtual times %v / %v (device %d B), the first's %v / %v (%d B)",
			second.total, second.steps, second.device, first.total, first.steps, first.device)
	}
}
