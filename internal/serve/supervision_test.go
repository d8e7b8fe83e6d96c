package serve_test

import (
	"testing"

	"cronus/internal/core"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/tvm"
)

// superviseConfig is the shared base load for the supervision tests: one
// inference tenant over a configurable pool, with the request watchdog on so
// hangs become timeouts.
func superviseConfig(seed int64, partitions int, policy serve.Policy) serve.Config {
	return serve.Config{
		Seed:           seed,
		Window:         10 * sim.Millisecond,
		Policy:         policy,
		MaxBatch:       4,
		BatchWindow:    50 * sim.Microsecond,
		GPUPartitions:  partitions,
		GPUFlopsPerNs:  400,
		KeepRequests:   true,
		RequestTimeout: 500 * sim.Microsecond,
		Tenants: []serve.TenantSpec{
			{
				Name: "tenant-0", Arrival: serve.Poisson, Rate: 3000, QueueCap: 256,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}},
			},
		},
	}
}

// runSupervised boots a platform for cfg and runs body before Serve — the
// hook the tests use to arm device hangs or spawn crash injectors.
func runSupervised(t *testing.T, cfg serve.Config, body func(pl *core.Platform)) *serve.Result {
	t.Helper()
	pcfg := core.DefaultConfig()
	pcfg.GPUs = cfg.GPUPartitions
	pcfg.NPUs = 0
	pcfg.MPS = true
	var res *serve.Result
	err := core.Run(pcfg, func(pl *core.Platform, p *sim.Proc) error {
		srv, err := serve.New(p, pl, cfg)
		if err != nil {
			return err
		}
		if body != nil {
			body(pl)
		}
		r, err := srv.Serve(p)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHangReportBreakerRaisesFailHang: two launch hangs armed on adjacent
// ordinals give the single replica two consecutive attempt timeouts; under
// Supervise the circuit breaker then reports the partition to the SPM as
// hung instead of retrying blindly, and the run records a FailHang failover.
func TestHangReportBreakerRaisesFailHang(t *testing.T) {
	cfg := superviseConfig(5, 1, serve.DeviceAffinity)
	cfg.Supervise = true
	res := runSupervised(t, cfg, func(pl *core.Platform) {
		pl.GPUs[0].Dev.ArmLaunchHang(5)
		pl.GPUs[0].Dev.ArmLaunchHang(6)
	})
	checkAccounting(t, res)
	if got := res.FailuresByReason()[spm.FailHang]; got < 1 {
		t.Fatalf("FailHang failovers = %d, want >= 1 (breaker never tripped)", got)
	}
	if got := res.Metrics.Counters["serve.hang_reports"]; got < 1 {
		t.Fatalf("serve.hang_reports = %d, want >= 1 (the FailHang came from elsewhere)", got)
	}
}

// TestCrashLoopQuarantineKeepsPoolServing: three injected panics inside the
// failure window quarantine partition 0; the pinned tenant's load (device
// affinity keeps the drain open across all three recoveries) re-places on
// partition 1 once quarantine engages, and every admitted request still
// completes exactly once.
func TestCrashLoopQuarantineKeepsPoolServing(t *testing.T) {
	cfg := superviseConfig(7, 2, serve.DeviceAffinity)
	cfg.Supervise = true
	res := runSupervised(t, cfg, func(pl *core.Platform) {
		part := pl.GPUs[0].Part
		pl.K.Spawn("test-crash-loop", func(cp *sim.Proc) {
			cp.Sleep(2 * sim.Millisecond)
			for n := 0; n < 3; {
				if rec := pl.SPM.Fail(part, spm.FailPanic); rec != nil {
					n++
					if rec.Quarantined {
						return
					}
				}
				if err := pl.SPM.AwaitReady(cp, part); err != nil {
					return
				}
			}
		})
	})
	checkAccounting(t, res)
	if len(res.Failures) != 3 {
		t.Fatalf("failures recorded = %d, want 3", len(res.Failures))
	}
	last := res.Failures[len(res.Failures)-1]
	if !last.Quarantined {
		t.Fatalf("third failure not quarantined: %+v", last)
	}
	if last.Reason != spm.FailPanic {
		t.Errorf("quarantining failure reason = %v, want panic", last.Reason)
	}
	if tr := res.Tenant("tenant-0"); tr == nil || tr.Completed == 0 {
		t.Fatal("pool stopped serving after quarantine")
	}
}

// TestRefailDuringReconnectDoesNotDoubleRequeue is the regression for a
// partition failing again while its replica is mid-settle/mid-connect after
// the first recovery: the replica holds no batches at that point, so the
// second failover must not requeue (and hence duplicate or lose) anything.
func TestRefailDuringReconnectDoesNotDoubleRequeue(t *testing.T) {
	cfg := superviseConfig(11, 1, serve.DeviceAffinity)
	res := runSupervised(t, cfg, func(pl *core.Platform) {
		part := pl.GPUs[0].Part
		pl.K.Spawn("test-refail", func(cp *sim.Proc) {
			cp.Sleep(2 * sim.Millisecond)
			pl.SPM.Fail(part, spm.FailPanic)
			if err := pl.SPM.AwaitReady(cp, part); err != nil {
				return
			}
			// The replica is now inside its 500µs settle sleep; land the
			// second trap before its reconnect finishes.
			cp.Sleep(300 * sim.Microsecond)
			pl.SPM.Fail(part, spm.FailPanic)
		})
	})
	checkAccounting(t, res)
	if len(res.Failures) != 2 {
		t.Fatalf("failures recorded = %d, want 2", len(res.Failures))
	}
	if tr := res.Tenant("tenant-0"); tr == nil || tr.Completed == 0 {
		t.Fatal("nothing completed after the double failure")
	}
}
