package serve

import (
	"fmt"

	"cronus/internal/cluster"
	"cronus/internal/core"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/trace"
)

// Serve runs the configured load against the booted plane: spawn workers
// are already live (New started them); this starts the load (the classic
// plane's dispatchers, then the one intake both planes share) and the
// configured injectors, sleeps out the load window, then drains — it
// returns only after every admitted request has completed, so a Result never
// has requests unaccounted for.
func (srv *Server) Serve(p *sim.Proc) (*Result, error) {
	srv.endAt = p.Now() + sim.Time(srv.cfg.Window)
	if !srv.flow {
		srv.startDispatchers()
	}
	srv.startLoad(p.Now())
	if srv.cfg.FailAt > 0 {
		srv.startFailInjector()
	}
	srv.clArmFaults(p)
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
// at FailAt, the pool's first partition (gpu-part0 of node 0) proceed-traps
// as if its mOS hit an unhandled fault.
func (srv *Server) startFailInjector() {
	srv.pl.K.Spawn("serve-fail-injector", func(p *sim.Proc) {
		p.Sleep(srv.cfg.FailAt)
		srv.pl.SPM.Fail(srv.parts[0].sp, spm.FailPanic)
	})
}

// Run boots a fresh pool sized for cfg, serves the configured load, and
// returns the drained Result: the one-call entry point used by
// cmd/cronus-serve, the ServeTable experiment and the tests.
func Run(cfg Config) (*Result, error) {
	var res *Result
	err := boot(cfg, func(p *sim.Proc, srv *Server) (err error) {
		res, err = srv.Serve(p)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return res, nil
}

// boot builds the pool cfg asks for — Config.Nodes independently-booted
// platforms (each with its own SPM, partition pool and mOS instances) on one
// fresh simulation (sim.Run), with a fresh trace collector attached to its
// kernel when cfg.Trace — boots the serving plane over it and runs body on
// the main proc with the idle server.
func boot(cfg Config, body func(p *sim.Proc, srv *Server) error) error {
	cfg.defaults()
	nodes, ppn := cfg.pool()
	pcfg := core.DefaultConfig()
	pcfg.GPUs = ppn
	pcfg.NPUs = 0 // the serving pool is GPU-backed; skip NPU boot time
	pcfg.MPS = true
	return sim.Run(func(p *sim.Proc) error {
		if cfg.Trace {
			trace.Attach(p.Kernel(), &trace.Collector{})
		}
		plats, err := cluster.BootNodes(p, nodes, pcfg)
		if err != nil {
			return err
		}
		srv, err := NewCluster(p, plats, cfg)
		if err != nil {
			return err
		}
		return body(p, srv)
	})
}
