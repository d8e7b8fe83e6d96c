package serve

import (
	"testing"

	"cronus/internal/core"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// TestInFlightDerivedFromLedger watches the admission bound's input — the
// in-flight count derived as admitted − completed − failed — on both planes
// across a mid-run partition failure: replays and requeues must never drive
// it negative (a request finalized twice, or before it was admitted), and it
// must read 0 for every tenant once the run has drained.
func TestInFlightDerivedFromLedger(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := Config{
			Seed:          23,
			Window:        4 * sim.Millisecond,
			Policy:        DeviceAffinity,
			MaxBatch:      4,
			BatchWindow:   40 * sim.Microsecond,
			GPUPartitions: 2,
			GPUFlopsPerNs: 100,
			Shards:        shards,
			FailAt:        1500 * sim.Microsecond,
			Tenants: []TenantSpec{
				{Name: "alpha", Arrival: FixedRate, Rate: 60000, QueueCap: 64,
					Mix: []WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}}},
				{Name: "beta", Arrival: Poisson, Rate: 30000, QueueCap: 16,
					Mix: []WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}}},
			},
		}
		pcfg := core.DefaultConfig()
		pcfg.GPUs, pcfg.NPUs, pcfg.MPS = cfg.GPUPartitions, 0, true
		err := core.Run(pcfg, func(pl *core.Platform, p *sim.Proc) error {
			srv, err := New(p, pl, cfg)
			if err != nil {
				return err
			}
			samples, peak, drained := 0, 0, false
			pl.K.Spawn("in-flight-sampler", func(sp *sim.Proc) {
				for !drained {
					for _, tn := range srv.tenants {
						n := tn.inFlight()
						if n < 0 {
							t.Errorf("shards=%d: tenant %s in-flight %d at %s", shards, tn.spec.Name, n, sim.Duration(sp.Now()))
						}
						peak = max(peak, n)
					}
					samples++
					sp.Sleep(3 * sim.Microsecond)
				}
			})
			res, err := srv.Serve(p)
			drained = true
			if err != nil {
				return err
			}
			for _, tn := range srv.tenants {
				if n := tn.inFlight(); n != 0 {
					t.Errorf("shards=%d: tenant %s in-flight %d after drain", shards, tn.spec.Name, n)
				}
			}
			if len(res.Failures) != 1 || samples == 0 || peak == 0 {
				t.Errorf("shards=%d: vacuous run: %d failures, %d samples, peak in-flight %d",
					shards, len(res.Failures), samples, peak)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}
