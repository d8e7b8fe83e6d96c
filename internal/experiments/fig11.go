package experiments

import (
	"fmt"

	"cronus/internal/core"
	"cronus/internal/dnn"
	"cronus/internal/sim"
)

// Fig11aRow is one spatial-sharing configuration: n LeNet training tenants
// on one GPU.
type Fig11aRow struct {
	Tenants           int
	SpatialSteps      int // total steps completed in the window with MPS
	TemporalSteps     int // with exclusive (dedicated/temporal) device access
	SpatialGainPct    float64
	TemporalBaseline1 int
}

// Figure11a reproduces the spatial-sharing experiment: LeNet training
// throughput with 1, 2 and 4 mEnclaves on the same GPU, spatially shared
// (MPS-style concurrent kernels) versus temporally shared (each kernel owns
// the whole device).
func Figure11a(window sim.Duration) ([]Fig11aRow, error) {
	if window <= 0 {
		window = 20 * sim.Millisecond
	}
	run := func(tenants int, mps bool) (int, error) {
		total := 0
		err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			pl.GPUs[0].Dev.SetMPS(mps)
			k := pl.K
			wg := sim.NewWaitGroup(k)
			counts := make([]int, tenants)
			for i := 0; i < tenants; i++ {
				i := i
				wg.Add(1)
				k.Spawn(fmt.Sprintf("tenant-%d", i), func(tp *sim.Proc) {
					defer wg.Done()
					s, err := pl.NewSession(tp, fmt.Sprintf("tenant-%d", i))
					if err != nil {
						return
					}
					conn, err := s.OpenCUDA(tp, core.CUDAOptions{Cubin: dnn.Cubin(), RingPages: 65})
					if err != nil {
						return
					}
					defer conn.Close(tp)
					tr, err := dnn.NewTrainer(tp, conn, dnn.LeNet2(), 8)
					if err != nil {
						return
					}
					deadline := tp.Now() + sim.Time(window)
					for tp.Now() < deadline {
						if _, err := tr.Step(tp); err != nil {
							return
						}
						counts[i]++
					}
				})
			}
			wg.Wait(p)
			for _, c := range counts {
				total += c
			}
			return nil
		})
		return total, err
	}
	tenantCounts := []int{1, 2, 4}
	steps := make([]int, 2*len(tenantCounts)) // cell i = tenantCounts[i/2], spatial then temporal
	err := each(len(steps), func(i int) error {
		var err error
		if steps[i], err = run(tenantCounts[i/2], i%2 == 0); err != nil {
			return fmt.Errorf("fig11a %d tenants %s: %w", tenantCounts[i/2], [2]string{"spatial", "temporal"}[i%2], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig11aRow
	base1 := 0
	for r, tenants := range tenantCounts {
		spatial, temporal := steps[2*r], steps[2*r+1]
		if tenants == 1 {
			base1 = spatial
		}
		rows = append(rows, Fig11aRow{
			Tenants:           tenants,
			SpatialSteps:      spatial,
			TemporalSteps:     temporal,
			SpatialGainPct:    100 * (float64(spatial)/float64(temporal) - 1),
			TemporalBaseline1: base1,
		})
	}
	return rows, nil
}

// RenderFigure11a formats the spatial-sharing rows.
func RenderFigure11a(rows []Fig11aRow) *Table {
	t := &Table{
		Title:   "Figure 11a: LeNet training throughput, n mEnclaves sharing one GPU (steps per window)",
		Columns: []string{"mEnclaves", "spatial (MPS)", "temporal (dedicated)", "spatial gain"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Tenants),
			fmt.Sprintf("%d", r.SpatialSteps),
			fmt.Sprintf("%d", r.TemporalSteps),
			fmt.Sprintf("%+.1f%%", r.SpatialGainPct),
		})
	}
	return t
}

// ShareMode is a Figure 11b gradient-exchange mechanism.
type ShareMode string

// The three mechanisms compared by Figure 11b.
const (
	ShareP2P       ShareMode = "pcie-p2p"   // trusted shared GPU memory over PCIe
	ShareSecureMem ShareMode = "secure-mem" // staging through trusted CPU memory
	ShareEncrypted ShareMode = "encrypted"  // HIX/Graviton-style encrypted staging
)

// ShareModes in rendering order.
var ShareModes = []ShareMode{ShareP2P, ShareSecureMem, ShareEncrypted}

// exchangeCost charges one gradient transfer of n bytes under a mode.
func exchangeCost(p *sim.Proc, costs *sim.CostModel, mode ShareMode, n int) {
	switch mode {
	case ShareP2P:
		// Direct GPU→GPU DMA through trusted shared device memory.
		p.Sleep(costs.DMA(n))
	case ShareSecureMem:
		// DtoH into trusted CPU memory, copy, HtoD into the peer.
		p.Sleep(costs.DMA(n) + costs.Memcpy(n) + costs.DMA(n))
	case ShareEncrypted:
		// DtoH, seal, cross untrusted memory, open, HtoD — plus the
		// lock-step switches (what HIX/Graviton-style sharing pays).
		p.Sleep(costs.DMA(n) + costs.Encrypt(n) + costs.UntrustedMsg +
			2*costs.SyncRPCSwitch() + costs.Encrypt(n) + costs.DMA(n))
	}
}

// Fig11bRow is one (GPU count, mode) data-parallel configuration.
type Fig11bRow struct {
	GPUs    int
	Mode    ShareMode
	Steps   int
	Total   sim.Duration
	PerStep sim.Duration
}

// Figure11b reproduces the multi-GPU data-parallel LeNet experiment: time
// per training step with 1, 2 and 4 GPUs under the three gradient-sharing
// mechanisms.
func Figure11b(steps int) ([]Fig11bRow, error) {
	if steps <= 0 {
		steps = 6
	}
	var rows []Fig11bRow
	for _, nGPUs := range []int{1, 2, 4} {
		for _, mode := range ShareModes {
			if nGPUs == 1 && mode != ShareP2P {
				continue // no exchange with a single GPU
			}
			rows = append(rows, Fig11bRow{GPUs: nGPUs, Mode: mode, Steps: steps})
		}
	}
	err := each(len(rows), func(r int) error {
		row := &rows[r]
		nGPUs, mode := row.GPUs, row.Mode
		cfg := core.DefaultConfig()
		cfg.GPUs = nGPUs
		err := core.Run(cfg, func(pl *core.Platform, p *sim.Proc) error {
			k := pl.K
			s, err := pl.NewSession(p, "dp-train")
			if err != nil {
				return err
			}
			trainers := make([]*dnn.Trainer, nGPUs)
			conns := make([]*core.CUDAConn, nGPUs)
			for i := 0; i < nGPUs; i++ {
				conn, err := s.OpenCUDA(p, core.CUDAOptions{
					Cubin: dnn.Cubin(), RingPages: 65,
					Partition: fmt.Sprintf("gpu-part%d", i),
					Name:      fmt.Sprintf("worker-%d", i),
				})
				if err != nil {
					return err
				}
				conns[i] = conn
				if trainers[i], err = dnn.NewTrainer(p, conn, dnn.LeNet2(), 8); err != nil {
					return err
				}
			}
			gradBytes := trainers[0].GradientBytes()
			start := p.Now()
			for step := 0; step < steps; step++ {
				// Workers compute their local step in parallel.
				wg := sim.NewWaitGroup(k)
				for i := 0; i < nGPUs; i++ {
					i := i
					wg.Add(1)
					k.Spawn(fmt.Sprintf("worker-%d", i), func(tp *sim.Proc) {
						defer wg.Done()
						_, _ = trainers[i].Step(tp)
					})
				}
				wg.Wait(p)
				// All-reduce: 2(n-1) transfers of the gradients.
				for i := 0; i < 2*(nGPUs-1); i++ {
					exchangeCost(p, pl.Costs, mode, gradBytes)
				}
			}
			row.Total = sim.Duration(p.Now() - start)
			for _, c := range conns {
				c.Close(p)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("fig11b %d GPUs %s: %w", nGPUs, mode, err)
		}
		row.PerStep = row.Total / sim.Duration(steps)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure11b formats the multi-GPU rows.
func RenderFigure11b(rows []Fig11bRow) *Table {
	t := &Table{
		Title:   "Figure 11b: data-parallel LeNet, time per step by gradient-sharing mechanism",
		Columns: []string{"GPUs", "mechanism", "per-step(ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.GPUs), string(r.Mode), ms(r.PerStep),
		})
	}
	return t
}
