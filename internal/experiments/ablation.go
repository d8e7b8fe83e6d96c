package experiments

import (
	"fmt"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/workload/rodinia"
)

// This file holds the ablations for the design choices DESIGN.md calls out:
// ① streaming (async EDL flags) vs forcing every mECall synchronous,
// ② sRPC ring size vs large-transfer throughput,
// ③ sensitivity of each system to the S-EL2 context-switch cost.

// AblationStreamingRow compares sRPC with and without streaming on one
// launch-heavy workload.
type AblationStreamingRow struct {
	Mode  string
	Total sim.Duration
}

// syncForcedCUDA wraps a CUDAConn forcing every call onto the synchronous
// path — ablating exactly the async EDL classification (§IV-C).
type syncForcedCUDA struct {
	inner *core.CUDAConn
}

func (s *syncForcedCUDA) MemAlloc(p *sim.Proc, n uint64) (uint64, error) {
	return s.inner.MemAlloc(p, n)
}
func (s *syncForcedCUDA) MemFree(p *sim.Proc, ptr uint64) error {
	_, err := s.inner.Client().CallSyncCap(p, driver.CallMemFree, driver.EncodeMemFree(ptr), 16)
	return err
}
func (s *syncForcedCUDA) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	_, err := s.inner.Client().CallSyncCap(p, driver.CallHtoD, driver.EncodeHtoD(dst, data), 16)
	return err
}
func (s *syncForcedCUDA) DtoH(p *sim.Proc, src uint64, n int) ([]byte, error) {
	return s.inner.DtoH(p, src, n)
}
func (s *syncForcedCUDA) Launch(p *sim.Proc, kernel string, grid gpu.Dim, args ...uint64) error {
	c := s.inner.Client()
	_, err := c.CallSyncCap(p, driver.CallLaunch, driver.EncodeLaunch(c.Args(), kernel, grid, args...), 16)
	return err
}
func (s *syncForcedCUDA) Sync(p *sim.Proc) error  { return s.inner.Sync(p) }
func (s *syncForcedCUDA) Close(p *sim.Proc) error { return s.inner.Close(p) }

// AblationStreaming runs the launch-heaviest Rodinia workload (gaussian)
// with streaming on and off.
func AblationStreaming() ([]AblationStreamingRow, error) {
	b, err := rodinia.ByName("gaussian")
	if err != nil {
		return nil, err
	}
	rows := []AblationStreamingRow{
		{Mode: "sRPC streaming (async EDL flags)"},
		{Mode: "sRPC forced lock-step (all sync)"},
	}
	err = each(len(rows), func(i int) error {
		var err error
		rows[i].Total, err = RunOnSystem(baseline.CRONUS, b.Cubin(), nil, nil, func(p *sim.Proc, ops accel.CUDA) error {
			if i == 1 {
				ops = &syncForcedCUDA{inner: ops.(*core.CUDAConn)}
			}
			return b.Run(p, ops)
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderAblationStreaming formats ablation ①.
func RenderAblationStreaming(rows []AblationStreamingRow) *Table {
	t := &Table{
		Title:   "Ablation: streaming vs forced-synchronous sRPC (gaussian)",
		Columns: []string{"mode", "total(ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Mode, ms(r.Total)})
	}
	return t
}

// AblationRingRow is one ring-size measurement.
type AblationRingRow struct {
	RingPages int
	Transfer  sim.Duration // time to stream a fixed payload HtoD
}

// AblationRingSize sweeps the smem size against a 1 MiB streamed upload:
// small rings stall on flow control; past the working set the ring stops
// mattering (why DefaultPages is modest).
func AblationRingSize() ([]AblationRingRow, error) {
	const payload = 1 << 20
	rows := []AblationRingRow{{RingPages: 5}, {RingPages: 17}, {RingPages: 65}, {RingPages: 257}}
	err := each(len(rows), func(i int) error {
		pages := rows[i].RingPages
		_, err := runCUDA(baseline.CRONUS, gpu.BuildCubin("vec_add"), pages, nil, nil, func(p *sim.Proc, conn accel.CUDA) error {
			ptr, err := conn.MemAlloc(p, payload)
			if err != nil {
				return err
			}
			data := make([]byte, payload)
			start := p.Now()
			if err := conn.HtoD(p, ptr, data); err != nil {
				return err
			}
			if err := conn.Sync(p); err != nil {
				return err
			}
			rows[i].Transfer = sim.Duration(p.Now() - start)
			return nil
		})
		if err != nil {
			return fmt.Errorf("ring %d pages: %w", pages, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderAblationRingSize formats ablation ②.
func RenderAblationRingSize(rows []AblationRingRow) *Table {
	t := &Table{
		Title:   "Ablation: sRPC ring size vs 1 MiB streamed upload",
		Columns: []string{"ring pages", "smem KiB", "transfer(ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.RingPages),
			fmt.Sprintf("%d", r.RingPages*4),
			ms(r.Transfer),
		})
	}
	return t
}

// AblationSwitchRow is one context-switch-cost measurement.
type AblationSwitchRow struct {
	SwitchCost sim.Duration
	CRONUS     sim.Duration
	HIX        sim.Duration
}

// AblationSwitchCost sweeps the S-EL2 context-switch cost and measures one
// gaussian pass on CRONUS and HIX-TrustZone: HIX pays the switches on every
// hardware control message; sRPC's whole point is that streamed calls
// don't (§IV-C).
func AblationSwitchCost() ([]AblationSwitchRow, error) {
	b, err := rodinia.ByName("gaussian")
	if err != nil {
		return nil, err
	}
	mults := []int{1, 2, 4, 8}
	systems := []baseline.System{baseline.CRONUS, baseline.HIX}
	costsAt := func(mult int) *sim.CostModel {
		costs := sim.DefaultCosts()
		costs.ContextSwitchS2 *= sim.Duration(mult)
		costs.WorldSwitch *= sim.Duration(mult)
		return costs
	}
	times, err := grid(len(mults), len(systems), func(r, c int) (sim.Duration, error) {
		return RunOnSystem(systems[c], b.Cubin(), costsAt(mults[r]), nil, b.Run)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationSwitchRow, len(mults))
	for r, mult := range mults {
		rows[r] = AblationSwitchRow{SwitchCost: costsAt(mult).ContextSwitchS2, CRONUS: times[r][0], HIX: times[r][1]}
	}
	return rows, nil
}

// RenderAblationSwitchCost formats ablation ③.
func RenderAblationSwitchCost(rows []AblationSwitchRow) *Table {
	t := &Table{
		Title:   "Ablation: S-EL2 context-switch cost sensitivity (gaussian)",
		Columns: []string{"switch cost(us)", "cronus(ms)", "hix-trustzone(ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", float64(r.SwitchCost)/1e3),
			ms(r.CRONUS), ms(r.HIX),
		})
	}
	return t
}
