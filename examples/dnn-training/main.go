// DNN training example (the paper's §VI-C workload): train LeNet-2 on the
// MNIST stand-in inside a CRONUS CUDA mEnclave and compare the per-iteration
// time against an unprotected native run — the headline "<7.1% extra
// computation time" claim, live.
package main

import (
	"fmt"
	"log"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/dnn"
	"cronus/internal/experiments"
	"cronus/internal/sim"
)

const (
	batch = 16
	iters = 5
)

// train runs the example's iterations on ops and returns the time they took,
// printing each loss when verbose.
func train(p *sim.Proc, ops accel.CUDA, verbose bool) (sim.Duration, error) {
	tr, err := dnn.NewTrainer(p, ops, dnn.LeNet2(), batch)
	if err != nil {
		return 0, err
	}
	start := p.Now()
	for i := 0; i < iters; i++ {
		loss, err := tr.Step(p)
		if err != nil {
			return 0, err
		}
		if verbose {
			fmt.Printf("  iter %d: loss=%.4f\n", i+1, loss)
		}
	}
	return sim.Duration(p.Now() - start), nil
}

func main() {
	// The unprotected run: the evaluation's native system, a bare device.
	var native sim.Duration
	_, err := experiments.RunOnSystem(baseline.Native, dnn.Cubin(), nil, nil, func(p *sim.Proc, ops accel.CUDA) (err error) {
		native, err = train(p, ops, false)
		return err
	})
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
		protected, err = train(p, conn, true)
		return err
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
