package srpc_test

import (
	"fmt"
	"runtime"
	"testing"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/metrics"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/srpc"
	"cronus/internal/wire"
)

// BenchmarkSRPCSyncCall measures host time per synchronous mECall round trip
// (push + doorbell wait + result read) on an established stream — the path
// dominated by the ring-wait mechanics this package optimizes. The call is an
// eight-byte cuMemcpyDtoH of one buffer allocated up front: it leaves the
// device as it found it, so the benchmark runs at any -benchtime.
func BenchmarkSRPCSyncCall(b *testing.B) {
	b.ReportAllocs()
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		h, err := setup(p, pl)
		if err != nil {
			return err
		}
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(4096))
		if err != nil {
			return err
		}
		ptr, err := driver.DecodePtr(res)
		if err != nil {
			return err
		}
		args := dtoh(ptr, 8)
		if _, err := c.Call(p, driver.CallDtoH, args); err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Call(p, driver.CallDtoH, args); err != nil {
				return err
			}
		}
		b.StopTimer()
		return c.Close(p)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestSyncCallEventBudget is the regression guard on what a synchronous mECall
// costs the host, in two legs.
//
// "polling bound": with the doorbell waits in place a call needs a bounded
// number of simulator events however long the executor takes. The polling
// implementation this replaced burned ~33 per call on this workload (two
// timer events per 480 ns quantum), the doorbell version ~8, and the bound
// sits between the two so a regression to per-quantum polling fails.
//
// "benchmark books": replays, step for step, what the repository benchmark
// does for srpc.sync_call_events, _vns and _allocs (bench/layers.go) — a
// default platform, one CUDA stream, then batches of 2000 eight-byte DtoH
// calls and a closing barrier: one warm-up, five timed with the registry off,
// one counted with it on. The virtual side is pinned to the digit: 3,527,280
// ns for the last timed batch and 17,984 events for the counted one are the
// 1763.64 ns and 8.992 events per call on the books, and no host-side change
// may move them. The host side is a ceiling: a warm call allocates once — the
// result slice it hands its caller — and no wait falls back from its doorbell
// to polling.
func TestSyncCallEventBudget(t *testing.T) {
	t.Run("polling bound", func(t *testing.T) {
		const calls = 100
		metrics.Default.Reset()
		metrics.Default.Enable()
		defer metrics.Default.Disable()
		err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			h, err := setup(p, pl)
			if err != nil {
				return err
			}
			c, err := h.connect(p)
			if err != nil {
				return err
			}
			args := driver.EncodeMemAlloc(4096)
			if _, err := c.Call(p, driver.CallMemAlloc, args); err != nil {
				return err
			}
			pre := metrics.Default.Snapshot()
			for i := 0; i < calls; i++ {
				if _, err := c.Call(p, driver.CallMemAlloc, args); err != nil {
					return err
				}
			}
			post := metrics.Default.Snapshot()
			perCall := post.CounterDelta(pre, "sim.events.dispatched") / calls
			if perCall > 16 {
				t.Errorf("sync call costs %d dispatched events; the doorbell wait should need at most 16", perCall)
			}
			return c.Close(p)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("benchmark books", func(t *testing.T) {
		const n, timed = 2000, 5
		metrics.Default.Reset()
		defer metrics.Default.Disable()
		k := sim.NewKernel()
		defer k.Shutdown()
		var err error
		k.Spawn("main", func(p *sim.Proc) {
			defer k.Stop()
			var conn *core.CUDAConn
			var ptr uint64
			if conn, ptr, err = openBenchStream(p); err != nil {
				return
			}
			// batch returns the virtual time and the allocations per call.
			batch := func() (vns sim.Time, allocs float64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				v0 := p.Now()
				for i := 0; i < n && err == nil; i++ {
					_, err = conn.DtoH(p, ptr, 8)
				}
				if err == nil {
					err = conn.Sync(p)
				}
				runtime.ReadMemStats(&after)
				return p.Now() - v0, float64(after.Mallocs-before.Mallocs) / n
			}
			batch()
			var vns sim.Time
			for i := 0; i < timed; i++ {
				var allocs float64
				if vns, allocs = batch(); allocs > 1.05 {
					t.Errorf("timed batch %d: a warm sync call allocates %.2f times, want 1", i, allocs)
				}
			}
			if vns != 3527280 {
				t.Errorf("last timed batch: %d virtual ns for %d calls and a barrier, want 3527280", vns, n)
			}
			metrics.Default.Enable()
			pre := metrics.Default.Snapshot()
			batch()
			post := metrics.Default.Snapshot()
			if events := post.CounterDelta(pre, "sim.events.dispatched"); events != 17984 {
				t.Errorf("counted batch: %d events for %d calls and a barrier, want 17984", events, n)
			}
			if fb := post.Counters["srpc.doorbell.fallback"]; fb != 0 {
				t.Errorf("%d doorbell waits fell back to polling on a healthy stream", fb)
			}
		})
		if runErr := k.Run(); runErr != nil {
			t.Fatal(runErr)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
}

// openBenchStream sets up what bench/layers.go times the sRPC call shapes on:
// a default platform, a session, one CUDA stream with a fused-payload arena,
// and a 4 KiB device buffer that has been written once.
func openBenchStream(p *sim.Proc) (*core.CUDAConn, uint64, error) {
	pl, err := core.BuildPlatform(p, core.DefaultConfig())
	if err != nil {
		return nil, 0, err
	}
	s, err := pl.NewSession(p, "layers")
	if err != nil {
		return nil, 0, err
	}
	conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("scale"), ZCPayload: 4096})
	if err != nil {
		return nil, 0, err
	}
	ptr, err := conn.MemAlloc(p, 4096)
	if err != nil {
		return nil, 0, err
	}
	return conn, ptr, conn.HtoD(p, ptr, make([]byte, 256))
}

// BenchmarkSrpcMultiRing measures host time per fused zero-copy call when
// the load is spread over parallel rings to one enclave. One ring serializes
// every record behind a single executor and doorbell; with several rings,
// independent submitter/executor pairs never touch each other's header
// words. Host ns/op is the number to watch.
func BenchmarkSrpcMultiRing(b *testing.B) {
	for _, rings := range []int{1, 4} {
		rings := rings
		b.Run(fmt.Sprintf("rings=%d", rings), func(b *testing.B) {
			err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
				h, err := setup(p, pl)
				if err != nil {
					return err
				}
				clients := make([]*srpc.Client, rings)
				dsts := make([]uint64, rings)
				for i := range clients {
					c, err := h.connect(p)
					if err != nil {
						return err
					}
					if err := c.GrantArena(p, 1024); err != nil {
						return err
					}
					res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(4096))
					if err != nil {
						return err
					}
					dsts[i], _ = driver.DecodePtr(res)
					clients[i] = c
				}
				payload := make([]byte, 1024)
				perRing := b.N/rings + 1
				done := sim.NewSignal(p.Kernel())
				remaining := rings
				b.ResetTimer()
				for i := range clients {
					c, dst := clients[i], dsts[i]
					p.Kernel().Spawn(fmt.Sprintf("pusher-%d", i), func(q *sim.Proc) {
						launch := driver.EncodeLaunch(new(wire.Encoder), "saxpy", gpu.Dim{16, 1, 1}, dst, dst, 2)
						for n := 0; n < perRing; n++ {
							if err := c.CallZC(q, srpc.ZCRequest{
								Payload: payload, CopyCall: driver.CallHtoD, Dst: dst,
								ExecCall: driver.CallLaunch, ExecArgs: launch,
							}, nil); err != nil {
								b.Error(err)
								break
							}
						}
						if err := c.Barrier(q); err != nil {
							b.Error(err)
						}
						remaining--
						if remaining == 0 {
							done.Fire()
						}
					})
				}
				done.Wait(p)
				b.StopTimer()
				for _, c := range clients {
					if err := c.Close(p); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
