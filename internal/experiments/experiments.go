// Package experiments regenerates every table and figure of the CRONUS
// evaluation (§VI) as code: each ExpN function runs the relevant workloads
// on the relevant systems inside fresh simulations and returns typed rows;
// Render* helpers print them in the same shape the paper reports.
//
// The per-experiment index lives in DESIGN.md §4; paper-vs-measured notes in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
)

// Systems evaluated by the GPU experiments, in rendering order.
var GPUSystems = []baseline.System{baseline.Native, baseline.TrustZone, baseline.HIX, baseline.CRONUS}

// RunOnSystem executes body against a CUDA ops implementation for the given
// system in a fresh simulation, returning the virtual time body consumed.
func RunOnSystem(system baseline.System, cubin []byte, body func(p *sim.Proc, ops accel.CUDA) error) (sim.Duration, error) {
	var elapsed sim.Duration
	if system == baseline.CRONUS {
		err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			s, err := pl.NewSession(p, "exp")
			if err != nil {
				return err
			}
			ops, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: cubin, RingPages: 65})
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
		dev := gpu.New(k, costs, gpu.Config{Name: "gpu0", MemBytes: 1 << 30, SMs: 46, CopyEngs: 2, MPS: true, KeySeed: "exp"})
		var ops accel.CUDA
		var err error
		switch system {
		case baseline.Native:
			ops, err = baseline.NewNativeCUDA(dev, costs, cubin)
		case baseline.TrustZone:
			ops, err = baseline.NewTrustZoneCUDA(dev, costs, cubin)
		case baseline.HIX:
			ops, err = baseline.NewHIXCUDA(dev, costs, cubin)
		default:
			err = fmt.Errorf("experiments: unknown system %q", system)
		}
		if err != nil {
			fail = err
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

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
