package tvm_test

import (
	"bytes"
	"sync"
	"testing"

	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/tvm"
	"cronus/internal/workload"
)

func nativeNPU(p *sim.Proc) *baseline.NativeNPU {
	costs := sim.DefaultCosts()
	dev := npu.New(p.Kernel(), costs, npu.DefaultConfig("n"))
	return baseline.NewNativeNPU(dev, costs)
}

func TestGraphShapes(t *testing.T) {
	for _, g := range tvm.InferenceGraphs() {
		if len(g.Layers) == 0 || g.FLOPs() <= 0 {
			t.Fatalf("%s malformed", g.Name)
		}
	}
	if n := len(tvm.ResNet18().Layers); n != 18 {
		t.Errorf("ResNet18 has %d layers", n)
	}
	if n := len(tvm.YoloV3().Layers); n < 60 {
		t.Errorf("YoloV3 has only %d layers", n)
	}
}

func TestCompileAndInferDeterministic(t *testing.T) {
	k := sim.NewKernel()
	var fail error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		ops := nativeNPU(p)
		e, err := tvm.Compile(p, ops, tvm.ResNet18())
		if err != nil {
			fail = err
			return
		}
		input := make([]byte, e.InLen)
		for i := range input {
			input[i] = byte(int8(i%7 - 3))
		}
		out1, err := e.Infer(p, input)
		if err != nil {
			fail = err
			return
		}
		out2, err := e.Infer(p, input)
		if err != nil {
			fail = err
			return
		}
		if len(out1) == 0 {
			t.Error("empty inference output")
		}
		if !bytes.Equal(out1, out2) {
			t.Error("inference not deterministic for identical input")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
}

func TestAllGraphsInferOnNative(t *testing.T) {
	for _, g := range tvm.InferenceGraphs() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			k := sim.NewKernel()
			var fail error
			var lat sim.Duration
			k.Spawn("main", func(p *sim.Proc) {
				defer k.Stop()
				ops := nativeNPU(p)
				e, err := tvm.Compile(p, ops, g)
				if err != nil {
					fail = err
					return
				}
				input := make([]byte, e.InLen)
				start := p.Now()
				if _, err := e.Infer(p, input); err != nil {
					fail = err
					return
				}
				lat = sim.Duration(p.Now() - start)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if fail != nil {
				t.Fatal(fail)
			}
			if lat <= 0 {
				t.Fatal("no latency recorded")
			}
			t.Logf("%s NPU latency %v", g.Name, lat)
		})
	}
}

func TestInferOnCRONUSLowOverhead(t *testing.T) {
	g := tvm.ResNet18()
	var native, cronus sim.Duration
	{
		k := sim.NewKernel()
		var fail error
		k.Spawn("main", func(p *sim.Proc) {
			defer k.Stop()
			ops := nativeNPU(p)
			e, err := tvm.Compile(p, ops, g)
			if err != nil {
				fail = err
				return
			}
			input := make([]byte, e.InLen)
			start := p.Now()
			if _, err := e.Infer(p, input); err != nil {
				fail = err
				return
			}
			native = sim.Duration(p.Now() - start)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if fail != nil {
			t.Fatal(fail)
		}
	}
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "tvm")
		if err != nil {
			return err
		}
		ops, err := s.OpenNPU(p, core.NPUOptions{RingPages: 257, Memory: "128M"})
		if err != nil {
			return err
		}
		defer ops.Close(p)
		e, err := tvm.Compile(p, ops, g)
		if err != nil {
			return err
		}
		input := make([]byte, e.InLen)
		start := p.Now()
		if _, err := e.Infer(p, input); err != nil {
			return err
		}
		cronus = sim.Duration(p.Now() - start)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(cronus) / float64(native)
	t.Logf("ResNet18: native %v, cronus %v (%.3fx)", native, cronus, ratio)
	if ratio > 1.1 {
		t.Errorf("CRONUS inference overhead %.2fx outside Figure 10b band", ratio)
	}
}

func TestCPUInferCharges(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		d := tvm.CPUInfer(p, tvm.ResNet18())
		if d <= 0 {
			t.Error("CPU inference charged no time")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// uploadLog is an accel.NPU that records what Compile issues: every MemAlloc
// size and every HtoD payload (copied — the point is what the bytes were at
// upload time), in order.
type uploadLog struct {
	*baseline.NativeNPU
	allocs  []uint64
	uploads [][]byte
}

func (u *uploadLog) MemAlloc(p *sim.Proc, n uint64) (uint64, error) {
	u.allocs = append(u.allocs, n)
	return u.NativeNPU.MemAlloc(p, n)
}

func (u *uploadLog) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	u.uploads = append(u.uploads, bytes.Clone(data))
	return u.NativeNPU.HtoD(p, dst, data)
}

// TestCompiledWeightsIdentical holds the weights a graph computes once and
// shares to the filler's definition of what Compile used to draw on every
// call: per layer, k·n int8 values in [−3, 3] in VTA block order, from one
// seed-99 filler running through the layers in order. Two engines of one
// graph — compiled on concurrent simulations, as a Fig 10b row's cells are —
// upload those bytes after the same MemAlloc sequence, and neither upload
// disturbs the other's.
func TestCompiledWeightsIdentical(t *testing.T) {
	for _, g := range tvm.InferenceGraphs() {
		f := workload.NewFiller(99)
		var want [][]byte
		for _, l := range g.Layers {
			k := (l.K + npu.BlockIn - 1) / npu.BlockIn * npu.BlockIn
			n := (l.N + npu.BlockOut - 1) / npu.BlockOut * npu.BlockOut
			w := make([]byte, k*n)
			f.Int8s(w, -3, 3)
			want = append(want, w)
		}
		logs := make([]*uploadLog, 2)
		var wg sync.WaitGroup
		for c := range logs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := sim.NewKernel()
				k.Spawn("main", func(p *sim.Proc) {
					defer k.Stop()
					logs[c] = &uploadLog{NativeNPU: nativeNPU(p)}
					if _, err := tvm.Compile(p, logs[c], g); err != nil {
						t.Error(err)
					}
				})
				if err := k.Run(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for c, log := range logs {
			if len(log.uploads) != len(want) {
				t.Fatalf("%s engine %d: %d uploads for %d layers", g.Name, c, len(log.uploads), len(want))
			}
			for li := range want {
				if !bytes.Equal(log.uploads[li], want[li]) {
					t.Errorf("%s engine %d layer %d %s: uploaded weights differ from the per-Compile draw", g.Name, c, li, g.Layers[li].Name)
				}
				// Three arenas first, then one allocation per layer, sized
				// by its packed weights.
				if got := log.allocs[3+li]; got != uint64(len(want[li])) {
					t.Errorf("%s engine %d layer %d: MemAlloc(%d), packed weights are %d bytes", g.Name, c, li, got, len(want[li]))
				}
			}
		}
	}
}
