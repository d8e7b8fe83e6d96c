// DNN training example (the paper's §VI-C workload): train LeNet-2 on the
// MNIST stand-in inside a CRONUS CUDA mEnclave and compare the per-iteration
// time against an unprotected native run — the headline "<7.1% extra
// computation time" claim, live.
package main

import (
	"fmt"
	"log"

	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/dnn"
	"cronus/internal/gpu"
	"cronus/internal/sim"
)

const (
	batch = 16
	iters = 5
)

func nativeRun() (sim.Duration, error) {
	k := sim.NewKernel()
	var elapsed sim.Duration
	var fail error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		costs := sim.DefaultCosts()
		dev := gpu.New(k, costs, gpu.Config{Name: "gpu0", MemBytes: 1 << 30, SMs: 46, CopyEngs: 2, MPS: true, KeySeed: "ex"})
		ops, err := baseline.NewNativeCUDA(dev, costs, dnn.Cubin())
		if err != nil {
			fail = err
			return
		}
		tr, err := dnn.NewTrainer(p, ops, dnn.LeNet2(), batch)
		if err != nil {
			fail = err
			return
		}
		start := p.Now()
		for i := 0; i < iters; i++ {
			if _, err := tr.Step(p); err != nil {
				fail = err
				return
			}
		}
		elapsed = sim.Duration(p.Now() - start)
	})
	if err := k.Run(); err != nil {
		return 0, err
	}
	return elapsed, fail
}

func main() {
	native, err := nativeRun()
	if err != nil {
		log.Fatal(err)
	}

	var protected sim.Duration
	err = core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "training")
		if err != nil {
			return err
		}
		conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: dnn.Cubin(), RingPages: 65, Memory: "256M"})
		if err != nil {
			return err
		}
		defer conn.Close(p)
		if err := s.Attest(p, 7); err != nil {
			return err
		}
		fmt.Println("attestation verified; training inside the CUDA mEnclave")
		tr, err := dnn.NewTrainer(p, conn, dnn.LeNet2(), batch)
		if err != nil {
			return err
		}
		start := p.Now()
		for i := 0; i < iters; i++ {
			loss, err := tr.Step(p)
			if err != nil {
				return err
			}
			fmt.Printf("  iter %d: loss=%.4f\n", i+1, loss)
		}
		protected = sim.Duration(p.Now() - start)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	overhead := 100 * (float64(protected)/float64(native) - 1)
	fmt.Printf("\nLeNet-2/MNIST, batch %d, %d iterations:\n", batch, iters)
	fmt.Printf("  native (unprotected): %v\n", native)
	fmt.Printf("  CRONUS (protected):   %v\n", protected)
	fmt.Printf("  overhead:             %+.2f%%  (paper's band: < 7.1%%)\n", overhead)
}
