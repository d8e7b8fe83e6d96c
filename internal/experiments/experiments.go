// Package experiments regenerates every table and figure of the CRONUS
// evaluation (§VI) as code: each FigureN/TableN function runs the relevant
// workloads on the relevant systems inside fresh simulations and returns typed
// rows; Render* helpers print them in the same shape the paper reports.
// Catalog lists them all, with the paper's parameters.
//
// The per-experiment index lives in DESIGN.md §4; paper-vs-measured notes in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/trace"
)

// Systems evaluated by the GPU experiments, in rendering order.
var GPUSystems = []baseline.System{baseline.Native, baseline.TrustZone, baseline.HIX, baseline.CRONUS}

// NPUSystems evaluated by the NPU experiments.
var NPUSystems = []baseline.System{baseline.Native, baseline.TrustZone, baseline.CRONUS}

// closer is what the testbed needs of an ops handle: both accel.CUDA and
// accel.NPU have it.
type closer interface{ Close(p *sim.Proc) error }

// testbed stands up one evaluated system in a fresh simulation on costs (nil =
// sim.DefaultCosts()), runs body against its ops and returns the virtual time
// body consumed. CRONUS is a booted platform, one session and the mEnclave
// cronus opens on it, closed on the way out; a baseline is one bare kernel and
// whatever bare builds on it. A non-nil tc is attached to the kernel before
// either is built, so it records the boot as well as body.
func testbed[O closer](system baseline.System, costs *sim.CostModel, tc *trace.Collector,
	cronus func(p *sim.Proc, s *core.Session) (O, error),
	bare func(k *sim.Kernel, costs *sim.CostModel) (O, error),
	body func(p *sim.Proc, ops O) error) (sim.Duration, error) {
	var elapsed sim.Duration
	timed := func(p *sim.Proc, ops O) error {
		start := p.Now()
		if err := body(p, ops); err != nil {
			return err
		}
		elapsed = sim.Duration(p.Now() - start)
		return nil
	}
	err := sim.Run(func(p *sim.Proc) error {
		trace.Attach(p.Kernel(), tc)
		if system != baseline.CRONUS {
			bareCosts := costs
			if bareCosts == nil {
				bareCosts = sim.DefaultCosts()
			}
			ops, err := bare(p.Kernel(), bareCosts)
			if err != nil {
				return err
			}
			return timed(p, ops)
		}
		cfg := core.DefaultConfig()
		cfg.Costs = costs
		pl, err := core.BuildPlatform(p, cfg)
		if err != nil {
			return err
		}
		s, err := pl.NewSession(p, "exp")
		if err != nil {
			return err
		}
		ops, err := cronus(p, s)
		if err != nil {
			return err
		}
		defer ops.Close(p)
		return timed(p, ops)
	})
	return elapsed, err
}

// RunOnSystem executes body against the CUDA ops of the given system in a
// fresh simulation on costs (nil = sim.DefaultCosts()), returning the virtual
// time body consumed. A non-nil tc records the run, its boot included.
func RunOnSystem(system baseline.System, cubin []byte, costs *sim.CostModel, tc *trace.Collector, body func(p *sim.Proc, ops accel.CUDA) error) (sim.Duration, error) {
	return runCUDA(system, cubin, 65, costs, tc, body)
}

// runCUDA is RunOnSystem with the CRONUS stream's ring size as a parameter.
func runCUDA(system baseline.System, cubin []byte, ringPages int, costs *sim.CostModel, tc *trace.Collector, body func(p *sim.Proc, ops accel.CUDA) error) (sim.Duration, error) {
	return testbed(system, costs, tc,
		func(p *sim.Proc, s *core.Session) (accel.CUDA, error) {
			return s.OpenCUDA(p, core.CUDAOptions{Cubin: cubin, RingPages: ringPages})
		},
		func(k *sim.Kernel, costs *sim.CostModel) (accel.CUDA, error) {
			dev := bareGPU(k, costs)
			switch system {
			case baseline.Native:
				return baseline.NewNativeCUDA(dev, costs, cubin)
			case baseline.TrustZone:
				return baseline.NewTrustZoneCUDA(dev, costs, cubin)
			case baseline.HIX:
				return baseline.NewHIXCUDA(dev, costs, cubin)
			}
			return nil, fmt.Errorf("experiments: unknown system %q", system)
		}, body)
}

// RunOnNPU is the NPU flavour of RunOnSystem.
func RunOnNPU(system baseline.System, costs *sim.CostModel, body func(p *sim.Proc, ops accel.NPU) error) (sim.Duration, error) {
	return testbed(system, costs, nil,
		func(p *sim.Proc, s *core.Session) (accel.NPU, error) {
			return s.OpenNPU(p, core.NPUOptions{RingPages: 257, Memory: "128M"})
		},
		func(k *sim.Kernel, costs *sim.CostModel) (accel.NPU, error) {
			dev := bareNPU(k, costs)
			switch system {
			case baseline.Native:
				return baseline.NewNativeNPU(dev, costs), nil
			case baseline.TrustZone:
				return baseline.NewTrustZoneNPU(dev, costs), nil
			}
			return nil, fmt.Errorf("experiments: unknown NPU system %q", system)
		}, body)
}

// bareGPU and bareNPU are the devices every baseline runs on: the platform's
// own GPU and NPU (core.BuildNode builds from the same configs), without the
// platform around them, so the Fig 7, 8 and 10 comparisons differ in the
// system only.
func bareGPU(k *sim.Kernel, costs *sim.CostModel) *gpu.Device {
	return gpu.New(k, costs, gpu.TuringConfig("gpu0"))
}

func bareNPU(k *sim.Kernel, costs *sim.CostModel) *npu.Device {
	return npu.New(k, costs, npu.DefaultConfig("npu0"))
}

// grid runs fn(r, c) for every cell of a rows×cols figure through each and
// returns the results as out[r][c]. Cells are flattened across rows and
// columns, so the processors stay busy past row boundaries.
func grid[T any](rows, cols int, fn func(r, c int) (T, error)) ([][]T, error) {
	out := make([][]T, rows)
	for r := range out {
		out[r] = make([]T, cols)
	}
	err := each(rows*cols, func(i int) error {
		var err error
		out[i/cols][i%cols], err = fn(i/cols, i%cols)
		return err
	})
	return out, err
}

// Table is a rendered text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func ms(d sim.Duration) string { return fmt.Sprintf("%.3f", d.Milliseconds()) }
