package experiments

import (
	"errors"
	"fmt"

	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// fig9Kernel is the matrix-computing task kernel: a fixed-cost launch
// standing in for the FVP experiment's recorded GPU execution times (§VI-D).
const fig9Kernel = "fig9_matrix_task"

func init() {
	gpu.Register(&gpu.Kernel{
		Name: fig9Kernel,
		Cost: func(sms float64, _ gpu.Dim, _ []uint64) gpu.LaunchCost {
			return gpu.LaunchCost{Work: 2 * sim.Millisecond, SMDemand: sms * 0.6}
		},
		Func: func(e *gpu.Exec) error {
			f, err := e.F32(e.Arg(0), 16)
			if err != nil {
				return err
			}
			f[0]++
			return nil
		},
	})
}

// Fig9Result is the failover timeline: completions per bucket for the two
// tasks, plus the measured recovery characteristics.
type Fig9Result struct {
	BucketMS     float64
	Buckets      int
	TaskA, TaskB []int
	CrashAt      sim.Time
	ReadyAt      sim.Time // partition recovered (r_f back to 0)
	ResumedAt    sim.Time // task B's first completion after resubmission
	MOSDowntime  sim.Duration
	RebootTime   sim.Duration // what the monolithic systems would pay
}

// Figure9 reproduces the failover experiment: two matrix tasks in separate
// S-EL2 partitions; one partition is crashed mid-run; CRONUS recovers only
// that partition with the proceed-trap procedure while the other task is
// undisturbed; the failed task is resubmitted once the mOS restarts.
func Figure9() (*Fig9Result, error) {
	const bucket = 50 * sim.Millisecond
	const horizon = 1200 * sim.Millisecond
	const crashAt = 300 * sim.Millisecond
	res := &Fig9Result{
		BucketMS: bucket.Milliseconds(),
		Buckets:  int(horizon / bucket),
	}
	res.TaskA = make([]int, res.Buckets)
	res.TaskB = make([]int, res.Buckets)

	err := core.Run(func() core.Config {
		cfg := core.DefaultConfig()
		cfg.GPUs = 2
		return cfg
	}(), func(pl *core.Platform, p *sim.Proc) error {
		res.RebootTime = baseline.RecoveryTime(baseline.TrustZone, pl.Costs)
		k := pl.K
		wg := sim.NewWaitGroup(k)

		// A task's first unexpected error fails the figure. What task B sees
		// between the crash and its resubmission is the experiment, not an
		// error; anything else — and anything at all on task A, whose
		// partition nobody crashes — is.
		task := func(tp *sim.Proc, name, partition string, series []int, restartable bool) error {
			s, err := pl.NewSession(tp, name)
			if err != nil {
				return err
			}
			connect := func() (*core.CUDAConn, uint64, error) {
				c, err := s.OpenCUDA(tp, core.CUDAOptions{
					Cubin: gpu.BuildCubin(fig9Kernel), Partition: partition,
					Name: fmt.Sprintf("%s-%d", name, tp.Now()),
				})
				if err != nil {
					return nil, 0, err
				}
				ptr, err := c.MemAlloc(tp, 64)
				return c, ptr, err
			}
			conn, ptr, err := connect()
			if err != nil {
				return err
			}
			for tp.Now() < sim.Time(horizon) {
				err := conn.Launch(tp, fig9Kernel, gpu.Dim{1, 1, 1}, ptr)
				if err == nil {
					err = conn.Sync(tp)
				}
				if err != nil {
					if !restartable {
						return err
					}
					// The partition failed: wait for the SPM to
					// finish the mOS restart, then resubmit.
					if err := pl.SPM.AwaitReady(tp, pl.GPUs[1].Part); err != nil {
						return err
					}
					tp.Sleep(500 * sim.Microsecond)
					// A partition that failed again refuses the new stream
					// with a PeerFault: the dead connection fails the next
					// launch and the task comes back here.
					c, cptr, err := connect()
					var pf *spm.PeerFault
					switch {
					case err == nil:
						conn, ptr = c, cptr
					case !errors.As(err, &pf):
						return err
					}
					continue
				}
				b := int(tp.Now() / sim.Time(bucket))
				if b >= 0 && b < len(series) {
					series[b]++
				}
				if restartable && res.ResumedAt == 0 && tp.Now() > res.CrashAt && res.CrashAt > 0 {
					res.ResumedAt = tp.Now()
				}
			}
			return nil
		}
		var first error
		runTask := func(name, partition string, series []int, restartable bool) {
			wg.Add(1)
			k.Spawn(name, func(tp *sim.Proc) {
				defer wg.Done()
				if err := task(tp, name, partition, series, restartable); err != nil && first == nil {
					first = fmt.Errorf("fig9: %s: %w", name, err)
				}
			})
		}
		runTask("task-a", "gpu-part0", res.TaskA, false)
		runTask("task-b", "gpu-part1", res.TaskB, true)

		// Crash injector.
		k.Spawn("crash", func(cp *sim.Proc) {
			cp.Sleep(crashAt)
			res.CrashAt = cp.Now()
			rec := pl.SPM.Fail(pl.GPUs[1].Part, spm.FailPanic)
			if rec != nil {
				pl.SPM.AwaitReady(cp, pl.GPUs[1].Part)
				res.ReadyAt = cp.Now()
				res.MOSDowntime = rec.Downtime()
			}
		})

		wg.Wait(p)
		return first
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RenderFigure9 formats the throughput timeline.
func RenderFigure9(r *Fig9Result) *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 9: failover timeline (crash at %.0fms; mOS restart %.0fms vs reboot %.0fms)",
			float64(r.CrashAt)/1e6, r.MOSDowntime.Milliseconds(), r.RebootTime.Milliseconds()),
		Columns: []string{"bucket(ms)", "task-a completions", "task-b completions"},
	}
	for i := 0; i < r.Buckets; i++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f-%.0f", float64(i)*r.BucketMS, float64(i+1)*r.BucketMS),
			fmt.Sprintf("%d", r.TaskA[i]),
			fmt.Sprintf("%d", r.TaskB[i]),
		})
	}
	return t
}
