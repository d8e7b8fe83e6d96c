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
	Tenants        int
	SpatialSteps   int // total steps completed in the window with MPS
	TemporalSteps  int // with exclusive (dedicated/temporal) device access
	SpatialGainPct float64
}

// trainTenants boots one platform, lets setup configure it, and has n tenants
// — each its own session and CUDA mEnclave on GPU 0 — train LeNet-2 (batch 8)
// side by side until window has passed. afterStep, when non-nil, runs on the
// tenant's proc after each of its steps. It returns the steps all tenants
// completed, or the first error any tenant hit, naming the tenant: a tenant
// that could not run is a failed figure, not a smaller number.
func trainTenants(n int, window sim.Duration, setup func(pl *core.Platform),
	afterStep func(pl *core.Platform, tp *sim.Proc, tenant, step int) error) (int, error) {
	total := 0
	model := dnn.LeNet2() // one initial draw for all tenants
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		setup(pl)
		var first error
		train := func(tp *sim.Proc, i int) error {
			s, err := pl.NewSession(tp, fmt.Sprintf("tenant-%d", i))
			if err != nil {
				return err
			}
			conn, err := s.OpenCUDA(tp, core.CUDAOptions{Cubin: dnn.Cubin(), RingPages: 65})
			if err != nil {
				return err
			}
			defer conn.Close(tp)
			tr, err := dnn.NewTrainer(tp, conn, model, 8)
			if err != nil {
				return err
			}
			deadline := tp.Now() + sim.Time(window)
			for step := 1; tp.Now() < deadline; step++ {
				if _, err := tr.Step(tp); err != nil {
					return fmt.Errorf("step %d: %w", step, err)
				}
				if afterStep != nil {
					if err := afterStep(pl, tp, i, step); err != nil {
						return fmt.Errorf("step %d: %w", step, err)
					}
				}
				total++
			}
			return nil
		}
		wg := sim.NewWaitGroup(pl.K)
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			pl.K.Spawn(fmt.Sprintf("tenant-%d", i), func(tp *sim.Proc) {
				defer wg.Done()
				if err := train(tp, i); err != nil && first == nil {
					first = fmt.Errorf("tenant %d: %w", i, err)
				}
			})
		}
		wg.Wait(p)
		return first
	})
	return total, err
}

// Figure11a reproduces the spatial-sharing experiment: LeNet training
// throughput with 1, 2 and 4 mEnclaves on the same GPU, spatially shared
// (MPS-style concurrent kernels) versus temporally shared (each kernel owns
// the whole device).
func Figure11a(window sim.Duration) ([]Fig11aRow, error) {
	if window <= 0 {
		window = 20 * sim.Millisecond
	}
	tenantCounts := []int{1, 2, 4}
	modes := []string{"spatial", "temporal"}
	steps, err := grid(len(tenantCounts), len(modes), func(r, c int) (int, error) {
		n, err := trainTenants(tenantCounts[r], window, func(pl *core.Platform) { pl.GPUs[0].Dev.SetMPS(c == 0) }, nil)
		if err != nil {
			return 0, fmt.Errorf("fig11a %d tenants %s: %w", tenantCounts[r], modes[c], err)
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig11aRow
	for r, tenants := range tenantCounts {
		spatial, temporal := steps[r][0], steps[r][1]
		rows = append(rows, Fig11aRow{
			Tenants:        tenants,
			SpatialSteps:   spatial,
			TemporalSteps:  temporal,
			SpatialGainPct: 100 * (float64(spatial)/float64(temporal) - 1),
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
	model := dnn.LeNet2() // every worker of every row starts from its one draw
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
				if trainers[i], err = dnn.NewTrainer(p, conn, model, 8); err != nil {
					return err
				}
			}
			gradBytes := trainers[0].GradientBytes()
			start := p.Now()
			for step := 0; step < steps; step++ {
				// Workers compute their local step in parallel.
				wg := sim.NewWaitGroup(k)
				stepErrs := make([]error, nGPUs)
				for i := 0; i < nGPUs; i++ {
					i := i
					wg.Add(1)
					k.Spawn(fmt.Sprintf("worker-%d", i), func(tp *sim.Proc) {
						defer wg.Done()
						_, stepErrs[i] = trainers[i].Step(tp)
					})
				}
				wg.Wait(p)
				for i, err := range stepErrs {
					if err != nil {
						return fmt.Errorf("worker %d step %d: %w", i, step+1, err)
					}
				}
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
