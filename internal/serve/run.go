package serve

import (
	"fmt"

	"cronus/internal/cluster"
	"cronus/internal/core"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// Serve runs the configured load against the booted plane: spawn workers
// are already live (New started them); this starts the load (the classic
// plane's dispatchers, then the one intake both planes share) and the
// configured injectors, sleeps out the load window, then drains — it
// returns only after every admitted request has completed, so a Result never
// has requests unaccounted for.
func (srv *Server) Serve(p *sim.Proc) (*Result, error) {
	srv.endAt = p.Now() + sim.Time(srv.cfg.Window)
	if srv.sh == nil {
		srv.startDispatchers()
	}
	srv.startLoad(p.Now())
	if srv.cfg.FailAt > 0 {
		srv.startFailInjector()
	}
	if srv.cl != nil {
		srv.clArmFaults(p)
	}
	srv.atStart(p)
	srv.elStart(p)
	p.Sleep(srv.cfg.Window)
	for srv.completedTotal < srv.admittedTotal {
		srv.drainCond.Wait(p)
	}
	srv.cancelFail()
	return srv.result(), nil
}

// startFailInjector arms the single mid-run FailPanic the config asked for:
// at FailAt, the named GPU partition (default gpu-part0; NewCluster resolved
// it against the pool) proceed-traps as if its mOS hit an unhandled fault.
func (srv *Server) startFailInjector() {
	srv.pl.K.Spawn("serve-fail-injector", func(p *sim.Proc) {
		p.Sleep(srv.cfg.FailAt)
		srv.pl.SPM.Fail(srv.failPart, spm.FailPanic)
	})
}

// Run boots a fresh platform sized for cfg, serves the configured load, and
// returns the drained Result — the one-call entry point used by
// cmd/cronus-serve, the ServeTable experiment and the tests. With Nodes >= 2
// it boots that many node platforms into one simulation and serves through
// the cluster gateway instead.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.Nodes >= 2 {
		return runCluster(cfg)
	}
	pcfg := core.DefaultConfig()
	pcfg.GPUs = cfg.GPUPartitions
	pcfg.NPUs = 0 // the serving pool is GPU-backed; skip NPU boot time
	pcfg.MPS = true
	var res *Result
	err := core.Run(pcfg, func(pl *core.Platform, p *sim.Proc) error {
		srv, err := New(p, pl, cfg)
		if err != nil {
			return err
		}
		r, err := srv.Serve(p)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return res, nil
}

// runCluster is the multi-node Run body: one simulation kernel, Nodes
// independently-booted platforms (each with its own SPM, partition pool and
// mOS instances) joined by the modeled fabric, one serving plane spanning
// them.
func runCluster(cfg Config) (*Result, error) {
	if err := CheckShardLayout(cfg.Shards, cfg.GPUPartitions, cfg.Nodes); err != nil {
		return nil, err
	}
	pcfg := core.DefaultConfig()
	pcfg.GPUs = cfg.GPUPartitions / cfg.Nodes
	pcfg.NPUs = 0
	pcfg.MPS = true
	var (
		res     *Result
		bodyErr error
	)
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		plats, err := cluster.BootNodes(p, cfg.Nodes, pcfg)
		if err != nil {
			bodyErr = err
			return
		}
		srv, err := NewCluster(p, plats, cfg)
		if err != nil {
			bodyErr = err
			return
		}
		res, bodyErr = srv.Serve(p)
	})
	if err := k.Run(); err != nil {
		k.Shutdown()
		return nil, fmt.Errorf("serve: %w", err)
	}
	k.Shutdown()
	if bodyErr != nil {
		return nil, fmt.Errorf("serve: %w", bodyErr)
	}
	return res, nil
}
