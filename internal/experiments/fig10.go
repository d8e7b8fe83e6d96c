package experiments

import (
	"fmt"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/sim"
	"cronus/internal/tvm"
	"cronus/internal/workload/vtabench"
)

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
	type cell struct {
		ops int
		d   sim.Duration
	}
	cells, err := grid(len(benches), len(NPUSystems), func(r, c int) (cell, error) {
		b, system := benches[r], NPUSystems[c]
		var ops int
		d, err := RunOnNPU(system, nil, func(p *sim.Proc, o accel.NPU) (err error) {
			ops, err = b.Run(p, o)
			return err
		})
		if err != nil {
			return cell{}, fmt.Errorf("fig10a %s on %s: %w", b.Name, system, err)
		}
		return cell{ops, d}, nil
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
			c := cells[r][s]
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
	// A graph's cells: each NPU system, then the CPU fallback.
	lats, err := grid(len(graphs), len(NPUSystems)+1, func(r, c int) (sim.Duration, error) {
		g := graphs[r]
		var lat sim.Duration
		if c == len(NPUSystems) {
			err := sim.Run(func(p *sim.Proc) error {
				lat = tvm.CPUInfer(p, g)
				return nil
			})
			return lat, err
		}
		system := NPUSystems[c]
		_, err := RunOnNPU(system, nil, func(p *sim.Proc, o accel.NPU) error {
			e, err := tvm.Compile(p, o, g)
			if err != nil {
				return err
			}
			input := make([]byte, e.InLen)
			start := p.Now()
			if _, err := e.Infer(p, input); err != nil {
				return err
			}
			lat = sim.Duration(p.Now() - start) // inference only, excluding compilation
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("fig10b %s on %s: %w", g.Name, system, err)
		}
		return lat, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig10bRow
	for r, g := range graphs {
		row := Fig10bRow{Model: g.Name, NPULatency: make(map[baseline.System]sim.Duration)}
		for s, system := range NPUSystems {
			row.NPULatency[system] = lats[r][s]
		}
		row.CPULatency = lats[r][len(NPUSystems)]
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
