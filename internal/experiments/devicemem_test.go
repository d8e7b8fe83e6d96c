package experiments

import (
	"runtime"
	"strings"
	"testing"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/dnn"
	"cronus/internal/sim"
	"cronus/internal/tvm"
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

// npuAllocCounter counts the NPU DRAM a workload asks for.
type npuAllocCounter struct {
	accel.NPU
	bytes uint64
}

func (a *npuAllocCounter) MemAlloc(p *sim.Proc, n uint64) (uint64, error) {
	a.bytes += n
	return a.NPU.MemAlloc(p, n)
}

// freshBackings returns the bytes every recycle.Recycler's Get has made
// rather than reused, as the heap profile has recorded them so far.
func freshBackings(t *testing.T) uint64 {
	t.Helper()
	runtime.GC() // a record is published by the cycle after the one that sees it
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatal("the heap profile grew while it was read")
	}
	var sum uint64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "cronus/internal/recycle.(*Recycler[") && strings.HasSuffix(f.Function, ").Get") {
				sum += uint64(r.AllocBytes)
				break
			}
			if !more {
				break
			}
		}
	}
	return sum
}

// TestFig10bCellReusesNPUMemory runs one Fig 10b cell — ResNet18 inference on
// CRONUS, as Figure10b runs it — twice in one process. The first run's
// platform gives its NPU DRAM, scratchpads and physical frames back to the
// recycler when its kernel shuts down, so in the second run the recyclers
// make at most a tenth of the NPU DRAM the cell asks for (every allocation
// is in the heap profile). Its inference latency is bit-equal to the first
// run's. The run's whole host allocation is logged: the cell's own host work
// — the weights it draws, the program it compiles and encodes — is about
// four times the DRAM it asks for, so that total cannot be the bound.
func TestFig10bCellReusesNPUMemory(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	type run struct {
		total, lat sim.Duration
		device     uint64 // bytes the cell's MemAllocs ask for
		heap       uint64 // bytes the run allocates on the host
		fresh      uint64 // bytes of them the recyclers made
	}
	cell := func() run {
		var r run
		var ms runtime.MemStats
		fresh := freshBackings(t)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		total, err := RunOnNPU(baseline.CRONUS, nil, func(p *sim.Proc, o accel.NPU) error {
			counted := &npuAllocCounter{NPU: o}
			e, err := tvm.Compile(p, counted, tvm.ResNet18())
			if err != nil {
				return err
			}
			input := make([]byte, e.InLen)
			start := p.Now()
			if _, err := e.Infer(p, input); err != nil {
				return err
			}
			r.lat, r.device = sim.Duration(p.Now()-start), counted.bytes
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		r.total, r.heap = total, ms.TotalAlloc-before
		r.fresh = freshBackings(t) - fresh
		return r
	}
	first := cell()
	second := cell()
	t.Logf("NPU DRAM asked for %d B; host bytes allocated: first run %d (%d by the recyclers), second %d (%d)",
		first.device, first.heap, first.fresh, second.heap, second.fresh)
	if first.device < 512<<10 {
		t.Fatalf("the cell asks for only %d B of NPU DRAM: not a test of its reuse", first.device)
	}
	if second.fresh > first.device/10 {
		t.Errorf("the second run's recyclers made %d B, more than a tenth of the %d B of NPU DRAM the cell asks for", second.fresh, first.device)
	}
	if second.total != first.total || second.lat != first.lat || second.device != first.device {
		t.Errorf("the second run's virtual times %v / %v (DRAM %d B), the first's %v / %v (%d B)",
			second.total, second.lat, second.device, first.total, first.lat, first.device)
	}
}
