package experiments

import (
	"math"
	"runtime"
	"testing"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/workload/vtabench"
)

// allocRow is one operation of an allocation table: the call, and how many
// allocations it may make per call once warm.
type allocRow struct {
	name   string
	budget float64
	call   func() error
}

// checkAllocRows warms each row with 400 calls — two trips round a CRONUS
// stream's ring for the largest records here, so every ring page has its
// frame — then counts the process's allocations over three windows of 100
// calls and keeps the smallest: a per-call allocation reads as a whole one in
// every window, while the runtime's own rare ones (a GC cycle, a
// type-assertion cache growing) land in one now and then.
func checkAllocRows(t *testing.T, system baseline.System, sync func() error, rows []allocRow) error {
	const calls = 100
	for _, r := range rows {
		for i := 0; i < 400; i++ {
			if err := r.call(); err != nil {
				return err
			}
		}
		if err := sync(); err != nil {
			return err
		}
		got := math.Inf(1)
		for w := 0; w < 3; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				if err := r.call(); err != nil {
					return err
				}
			}
			runtime.ReadMemStats(&after)
			if err := sync(); err != nil {
				return err
			}
			got = min(got, float64(after.Mallocs-before.Mallocs)/calls)
		}
		t.Logf("%s %s: %.2f allocations/call (budget %.0f)", system, r.name, got, r.budget)
		if got > r.budget {
			t.Errorf("%s: %s makes %.2f allocations per call, budget %.0f", system, r.name, got, r.budget)
		}
	}
	return nil
}

// TestCUDAAllocationsPerCall holds the four GPU systems, driven through
// accel.CUDA the way the figures drive them — every launch through an
// accel.Launcher — to the allocation table of the data path: HtoD, Launch and
// Sync allocate nothing; DtoH allocates only the bytes it hands back.
func TestCUDAAllocationsPerCall(t *testing.T) {
	const n = 1024
	for _, system := range GPUSystems {
		if _, err := RunOnSystem(system, gpu.BuildCubin("scale"), nil, nil, func(p *sim.Proc, ops accel.CUDA) error {
			l := &accel.Launcher{CUDA: ops}
			buf, err := ops.MemAlloc(p, 4*n)
			if err != nil {
				return err
			}
			host := make([]byte, 4*n)
			one := gpu.FloatBits(1)
			return checkAllocRows(t, system, func() error { return ops.Sync(p) }, []allocRow{
				{"HtoD 4 KiB", 0, func() error { return ops.HtoD(p, buf, host) }},
				{"Launch", 0, func() error { return l.Launch(p, "scale", gpu.Dim{n, 1, 1}, buf, one) }},
				{"Sync", 0, func() error { return ops.Sync(p) }},
				{"DtoH 4 KiB (its result)", 1, func() error {
					_, err := ops.DtoH(p, buf, len(host))
					return err
				}},
			})
		}); err != nil {
			t.Errorf("%s: %v", system, err)
		}
	}
}

// TestNPUAllocationsPerCall is the same table over the three NPU systems,
// with Run submitting a vta-bench GEMM program of 450 instructions.
func TestNPUAllocationsPerCall(t *testing.T) {
	const m, k, n = 64, 64, 64
	for _, system := range NPUSystems {
		if _, err := RunOnNPU(system, nil, func(p *sim.Proc, ops accel.NPU) error {
			var addr [3]uint64
			for i, size := range []uint64{m * k, k * n, m * n} {
				a, err := ops.MemAlloc(p, size)
				if err != nil {
					return err
				}
				addr[i] = a
			}
			host := make([]byte, m*k)
			prog := vtabench.MatmulProgram(addr[0], addr[1], addr[2], m, n, k)
			return checkAllocRows(t, system, func() error { return ops.Sync(p) }, []allocRow{
				{"HtoD 4 KiB", 0, func() error { return ops.HtoD(p, addr[0], host) }},
				{"Run", 0, func() error { return ops.Run(p, prog) }},
				{"Sync", 0, func() error { return ops.Sync(p) }},
				{"DtoH 4 KiB (its result)", 1, func() error {
					_, err := ops.DtoH(p, addr[2], m*n)
					return err
				}},
			})
		}); err != nil {
			t.Errorf("%s: %v", system, err)
		}
	}
}
