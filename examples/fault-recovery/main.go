// Fault-recovery example (the paper's §VI-D failover): two GPU tasks run in
// separate S-EL2 partitions; one partition is crashed mid-run. CRONUS's
// proceed-trap procedure tears down the victim's stream safely (no TOCTOU,
// no deadlock, no data leak), restarts only that mOS in hundreds of
// milliseconds, and the task resubmits — while the other partition's task
// never misses a beat.
package main

import (
	"errors"
	"fmt"
	"log"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.GPUs = 2
	err := core.Run(cfg, func(pl *core.Platform, p *sim.Proc) error {
		gpu.Register(&gpu.Kernel{
			Name: "matrix_task",
			Cost: func(float64, gpu.Dim, []uint64) gpu.LaunchCost {
				return gpu.LaunchCost{Work: 5 * sim.Millisecond, SMDemand: 30}
			},
			Func: func(e *gpu.Exec) error { return nil },
		})

		s, err := pl.NewSession(p, "fault-demo")
		if err != nil {
			return err
		}
		open := func(partition, name string) (*core.CUDAConn, error) {
			return s.OpenCUDA(p, core.CUDAOptions{
				Cubin: gpu.BuildCubin("matrix_task"), Partition: partition, Name: name,
			})
		}
		healthy, err := open("gpu-part0", "task-A")
		if err != nil {
			return err
		}
		victim, err := open("gpu-part1", "task-B")
		if err != nil {
			return err
		}
		step := func(c *core.CUDAConn) error {
			if err := c.Launch(p, "matrix_task", gpu.Dim{1, 1, 1}); err != nil {
				return err
			}
			return c.Sync(p)
		}
		for i := 0; i < 3; i++ {
			if err := step(healthy); err != nil {
				return err
			}
			if err := step(victim); err != nil {
				return err
			}
		}
		fmt.Printf("t=%v  both tasks computing in separate partitions\n", p.Now())

		// The GPU-1 partition crashes (buggy driver / malicious code).
		crashAt := p.Now()
		rec := pl.SPM.Fail(pl.GPUs[1].Part, spm.FailPanic)
		fmt.Printf("t=%v  partition gpu-part1 CRASHED (injected panic)\n", p.Now())

		// The victim's next stream access traps and reports the failure.
		err = step(victim)
		if !errors.Is(err, srpc.ErrPeerFailed) {
			return fmt.Errorf("expected peer-failure signal, got %v", err)
		}
		fmt.Printf("t=%v  task-B's stream trapped and tore down cleanly: %v\n", p.Now(), err)

		// The healthy partition is completely unaffected (R3.1).
		if err := step(healthy); err != nil {
			return fmt.Errorf("healthy task disturbed: %w", err)
		}
		fmt.Printf("t=%v  task-A (gpu-part0) kept computing through the crash\n", p.Now())

		// Wait for the SPM's recovery: device scrubbed, mOS reloaded.
		pl.SPM.AwaitReady(p, pl.GPUs[1].Part)
		p.Sleep(sim.Millisecond)
		fmt.Printf("t=%v  gpu-part1 recovered (downtime %v, epoch %d) — a machine reboot would cost %v\n",
			p.Now(), rec.Downtime(), pl.GPUs[1].Part.Epoch(), pl.Costs.MachineReboot)

		// Resubmit task B against the fresh incarnation.
		victim2, err := open("gpu-part1", "task-B-resubmitted")
		if err != nil {
			return err
		}
		if err := step(victim2); err != nil {
			return err
		}
		fmt.Printf("t=%v  task-B resubmitted and computing again (%.0f ms after the crash)\n",
			p.Now(), float64(p.Now()-crashAt)/1e6)
		victim2.Close(p)
		healthy.Close(p)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
