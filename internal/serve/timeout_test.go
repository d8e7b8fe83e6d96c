package serve_test

import (
	"errors"
	"testing"

	"cronus/internal/core"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// hangConfig is the shared load for the timeout/retry table: one tenant on
// one partition at a rate where every batch holds a single request, per-item
// device work (~11µs at 400 flops/ns) far below the 500µs watchdog, so only
// injected hangs ever trip it.
func hangConfig() serve.Config {
	return serve.Config{
		Seed:           13,
		Window:         10 * sim.Millisecond,
		Policy:         serve.RoundRobin,
		MaxBatch:       4,
		BatchWindow:    50 * sim.Microsecond,
		GPUPartitions:  1,
		GPUFlopsPerNs:  400,
		KeepRequests:   true,
		RequestTimeout: 500 * sim.Microsecond,
		Tenants: []serve.TenantSpec{
			{
				Name: "ten", Arrival: serve.FixedRate, Rate: 2000, QueueCap: 256,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}},
			},
		},
	}
}

// runArmed boots a platform, builds the plane, lets the caller arm device
// faults, then serves — the handle tests need that serve.Run does not give.
func runArmed(t *testing.T, cfg serve.Config, arm func(pl *core.Platform)) *serve.Result {
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
		if arm != nil {
			arm(pl)
		}
		r, err := srv.Serve(p)
		res = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// retries is the budget every batch gets after its first attempt.
const retries = 3

// TestTimeoutRetryTable drives the watchdog through its scenarios: a hang on
// the first batch, a hang mid-stream, hangs up to and including the last
// permitted retry, and hangs on every attempt (budget exhausted). Launch
// ordinals are device-lifetime, so attempt k of the first batch is launch k
// and everything is deterministic.
func TestTimeoutRetryTable(t *testing.T) {
	cases := []struct {
		name       string
		hangAt     []uint64 // device launch ordinals that hang
		wantFailed bool     // the hung batch exhausts its budget
	}{
		{"hang-first-batch", []uint64{1}, false},
		{"hang-mid-stream", []uint64{4}, false},
		{"hang-until-last-retry", []uint64{1, 2, 3}, false},
		{"hang-all-attempts", []uint64{1, 2, 3, 4}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := runArmed(t, hangConfig(), func(pl *core.Platform) {
				for _, n := range tc.hangAt {
					pl.GPUs[0].Dev.ArmLaunchHang(n)
				}
			})
			checkAccounting(t, res)
			tr := res.Tenants[0]
			if tr.Timeouts != uint64(len(tc.hangAt)) {
				t.Errorf("timeouts = %d, want %d (one per armed hang)", tr.Timeouts, len(tc.hangAt))
			}
			if tr.Duplicates != 0 {
				t.Errorf("retries double-completed %d requests", tr.Duplicates)
			}
			var timeoutErrs int
			for _, r := range res.Requests {
				if r.Done == 0 {
					t.Errorf("request %d never completed (lost to the hang)", r.ID)
				}
				var te *serve.TimeoutError
				if errors.As(r.Err, &te) {
					timeoutErrs++
					if te.Attempts != retries+1 {
						t.Errorf("request %d gave up after %d attempts, want %d",
							r.ID, te.Attempts, retries+1)
					}
				} else if r.Err != nil {
					t.Errorf("request %d failed with %v, want nil or *TimeoutError", r.ID, r.Err)
				}
			}
			if tc.wantFailed {
				if tr.Failed == 0 || timeoutErrs != int(tr.Failed) {
					t.Errorf("failed = %d with %d typed timeout errors, want equal and > 0",
						tr.Failed, timeoutErrs)
				}
			} else {
				if tr.Failed != 0 || timeoutErrs != 0 {
					t.Errorf("failed = %d (typed %d), want 0 — retries should have recovered",
						tr.Failed, timeoutErrs)
				}
				if tr.Retried == 0 {
					t.Error("no retries recorded despite armed hangs")
				}
			}
		})
	}
}

// TestRetryBackoffPinned pins the retry schedule: 100µs before the first
// retry, doubling before each later one. Hanging the first k attempts of the
// first batch (k = 0…retries) delays its completion by k timed-out attempts,
// k connection recycles and the first k backoffs. A timed-out attempt costs
// the same every time, so the step from k−1 to k hangs is a constant plus the
// k-th backoff, and consecutive steps differ by backoff(k) − backoff(k−1):
// 100µs, then 200µs. A recycle's reconnect is not quite constant — the fresh
// enclave's setup drifts by under a microsecond between incarnations — so the
// differences are held to within 2µs, far below the 100µs steps they pin.
func TestRetryBackoffPinned(t *testing.T) {
	const base, drift = 100 * sim.Microsecond, 2 * sim.Microsecond
	first := func(hangs int) *serve.Request {
		res := runArmed(t, hangConfig(), func(pl *core.Platform) {
			for n := 1; n <= hangs; n++ {
				pl.GPUs[0].Dev.ArmLaunchHang(uint64(n))
			}
		})
		checkAccounting(t, res)
		if res.Requests[0].Err != nil {
			t.Fatalf("%d hangs: first request failed: %v", hangs, res.Requests[0].Err)
		}
		return res.Requests[0]
	}
	var (
		arrived sim.Time
		done    []sim.Time
	)
	for k := 0; k <= retries; k++ {
		r := first(k)
		if k > 0 && r.Arrived != arrived {
			t.Fatalf("%d hangs: first arrival at %v, want %v", k, r.Arrived, arrived)
		}
		arrived = r.Arrived
		done = append(done, r.Done)
	}
	for k := 2; k <= retries; k++ {
		grew := sim.Duration(done[k] - 2*done[k-1] + done[k-2])
		if want := base << (k - 2); grew < want-drift || grew > want+drift {
			t.Errorf("hang %d: completion step grew by %v over hang %d's, want %v ± %v (backoff %v − %v)",
				k, grew, k-1, want, drift, base<<(k-1), base<<(k-2))
		}
	}
	// Each step bounds the schedule from below: one more timed-out attempt
	// and one more backoff.
	if step := sim.Duration(done[1] - done[0]); step < hangConfig().RequestTimeout+base {
		t.Errorf("one hang delayed completion by %v, below the schedule floor %v",
			step, hangConfig().RequestTimeout+base)
	}
}
