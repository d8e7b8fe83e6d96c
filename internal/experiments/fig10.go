package experiments

import (
	"fmt"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/tvm"
	"cronus/internal/workload/vtabench"
)

// NPUSystems evaluated by the NPU experiments.
var NPUSystems = []baseline.System{baseline.Native, baseline.TrustZone, baseline.CRONUS}

// runOnNPUSystem executes body against an NPU ops implementation.
func runOnNPUSystem(system baseline.System, body func(p *sim.Proc, ops accel.NPU) error) (sim.Duration, error) {
	var elapsed sim.Duration
	if system == baseline.CRONUS {
		err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			s, err := pl.NewSession(p, "npu-exp")
			if err != nil {
				return err
			}
			ops, err := s.OpenNPU(p, core.NPUOptions{RingPages: 257, Memory: "128M"})
			if err != nil {
				return err
			}
			defer ops.Close(p)
			start := p.Now()
			if err := body(p, ops); err != nil {
				return err
			}
			elapsed = sim.Duration(p.Now() - start)
			return nil
		})
		return elapsed, err
	}
	k := sim.NewKernel()
	var fail error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		costs := sim.DefaultCosts()
		dev := npu.New(k, costs, npu.Config{Name: "npu0", MemBytes: 256 << 20, KeySeed: "exp"})
		var ops accel.NPU
		switch system {
		case baseline.Native:
			ops = baseline.NewNativeNPU(dev, costs)
		case baseline.TrustZone:
			ops = baseline.NewTrustZoneNPU(dev, costs)
		default:
			fail = fmt.Errorf("experiments: unknown NPU system %q", system)
			return
		}
		start := p.Now()
		if err := body(p, ops); err != nil {
			fail = err
			return
		}
		elapsed = sim.Duration(p.Now() - start)
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	return elapsed, fail
}

// Fig10aRow is one vta-bench workload's throughput across systems.
type Fig10aRow struct {
	Benchmark  string
	Ops        int
	Times      map[baseline.System]sim.Duration
	Throughput map[baseline.System]float64 // block ops per ms
}

// Figure10a reproduces the vta-bench throughput comparison on the NPU.
func Figure10a() ([]Fig10aRow, error) {
	benches := vtabench.All()
	ns := len(NPUSystems)
	type cell struct {
		ops int
		d   sim.Duration
	}
	cells := make([]cell, len(benches)*ns) // cell i = benches[i/ns] on NPUSystems[i%ns]
	err := each(len(cells), func(i int) error {
		b, system := benches[i/ns], NPUSystems[i%ns]
		d, err := runOnNPUSystem(system, func(p *sim.Proc, o accel.NPU) error {
			n, err := b.Run(p, o)
			cells[i].ops = n
			return err
		})
		if err != nil {
			return fmt.Errorf("fig10a %s on %s: %w", b.Name, system, err)
		}
		cells[i].d = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig10aRow
	for r, b := range benches {
		row := Fig10aRow{
			Benchmark:  b.Name,
			Times:      make(map[baseline.System]sim.Duration),
			Throughput: make(map[baseline.System]float64),
		}
		for s, system := range NPUSystems {
			c := cells[r*ns+s]
			row.Ops = c.ops
			row.Times[system] = c.d
			row.Throughput[system] = float64(c.ops) / c.d.Milliseconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure10a formats vta-bench throughputs.
func RenderFigure10a(rows []Fig10aRow) *Table {
	t := &Table{
		Title:   "Figure 10a: vta-bench throughput (NPU block ops / ms)",
		Columns: []string{"benchmark", "native", "trustzone", "cronus", "cronus/native"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Benchmark,
			fmt.Sprintf("%.1f", r.Throughput[baseline.Native]),
			fmt.Sprintf("%.1f", r.Throughput[baseline.TrustZone]),
			fmt.Sprintf("%.1f", r.Throughput[baseline.CRONUS]),
			fmt.Sprintf("%.3f", r.Throughput[baseline.CRONUS]/r.Throughput[baseline.Native]),
		})
	}
	return t
}

// Fig10bRow is one DNN inference latency measurement.
type Fig10bRow struct {
	Model      string
	NPULatency map[baseline.System]sim.Duration
	CPULatency sim.Duration
}

// Figure10b reproduces the TVM inference latency comparison: ResNet18,
// ResNet50 and YoloV3 on the (simulated) NPU under each system, plus the
// CPU-enclave fallback.
func Figure10b() ([]Fig10bRow, error) {
	graphs := tvm.InferenceGraphs()
	nc := len(NPUSystems) + 1 // a graph's cells: each NPU system, then the CPU fallback
	lats := make([]sim.Duration, len(graphs)*nc)
	err := each(len(lats), func(i int) error {
		g := graphs[i/nc]
		if i%nc == len(NPUSystems) {
			k := sim.NewKernel()
			k.Spawn("cpu", func(p *sim.Proc) {
				defer k.Stop()
				lats[i] = tvm.CPUInfer(p, g)
			})
			return k.Run()
		}
		system := NPUSystems[i%nc]
		_, err := runOnNPUSystem(system, func(p *sim.Proc, o accel.NPU) error {
			e, err := tvm.Compile(p, o, g)
			if err != nil {
				return err
			}
			input := make([]byte, e.InLen)
			start := p.Now()
			if _, err := e.Infer(p, input); err != nil {
				return err
			}
			lats[i] = sim.Duration(p.Now() - start) // inference only, excluding compilation
			return nil
		})
		if err != nil {
			return fmt.Errorf("fig10b %s on %s: %w", g.Name, system, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig10bRow
	for r, g := range graphs {
		row := Fig10bRow{Model: g.Name, NPULatency: make(map[baseline.System]sim.Duration)}
		for s, system := range NPUSystems {
			row.NPULatency[system] = lats[r*nc+s]
		}
		row.CPULatency = lats[r*nc+len(NPUSystems)]
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure10b formats inference latencies.
func RenderFigure10b(rows []Fig10bRow) *Table {
	t := &Table{
		Title:   "Figure 10b: DNN inference latency (ms; NPU is the fsim-style simulator)",
		Columns: []string{"model", "cpu", "npu native", "npu trustzone", "npu cronus"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Model,
			ms(r.CPULatency),
			ms(r.NPULatency[baseline.Native]),
			ms(r.NPULatency[baseline.TrustZone]),
			ms(r.NPULatency[baseline.CRONUS]),
		})
	}
	return t
}
