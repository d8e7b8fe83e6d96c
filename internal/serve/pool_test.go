package serve

import (
	"math"
	"slices"
	"testing"

	"cronus/internal/core"
	"cronus/internal/elastic"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/tvm"
)

// poolTestConfig is a two-tenant flow-model load over four partitions of one
// node, with one planned migration that releases partition 3.
func poolTestConfig() Config {
	return Config{
		Seed:          29,
		Window:        6 * sim.Millisecond,
		Policy:        RoundRobin,
		MaxBatch:      4,
		BatchWindow:   40 * sim.Microsecond,
		GPUPartitions: 4,
		GPUFlopsPerNs: 400,
		Shards:        4,
		Migrations: []Migration{
			{At: sim.Millisecond, From: elastic.Endpoint{Part: 3}, To: elastic.Endpoint{Part: 0}},
		},
		Tenants: []TenantSpec{
			{Name: "alpha", Arrival: FixedRate, Rate: 90000, QueueCap: 64,
				Mix: []WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}}},
			{Name: "beta", Arrival: Poisson, Rate: 30000, QueueCap: 64,
				Mix: []WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}}},
		},
	}
}

// onOneNode boots a one-node pool for cfg and hands the server to body.
func onOneNode(t *testing.T, cfg Config, body func(pl *core.Platform, p *sim.Proc, srv *Server) error) {
	t.Helper()
	err := boot(cfg, func(p *sim.Proc, srv *Server) error { return body(srv.pl, p, srv) })
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneNodeLinkIsLocal pins the link a pool of one node gets: the hop is
// the PCIe latency the single-machine flow plane always charged, and moving
// any payload over it costs exactly nothing more.
func TestOneNodeLinkIsLocal(t *testing.T) {
	cfg := poolTestConfig()
	cfg.Migrations = nil
	cfg.defaults()
	if cfg.HashBound != 1.25 {
		t.Errorf("HashBound defaults to %g on a one-node pool, want 1.25", cfg.HashBound)
	}
	onOneNode(t, cfg, func(pl *core.Platform, p *sim.Proc, srv *Server) error {
		fab := srv.cl.fab
		if fab.Nodes() != 1 || fab.Latency != pl.Costs.PCIeLatency {
			t.Errorf("one-node link: %d nodes, hop %s; want 1 node, hop %s (PCIeLatency)",
				fab.Nodes(), fab.Latency, pl.Costs.PCIeLatency)
		}
		for _, n := range []int{0, 1, 4096, 1 << 30, math.MaxInt32} {
			if d := fab.TransferNS(0, n, p.Now()); d != 0 {
				t.Errorf("one-node link prices %d bytes at %s, want 0", n, d)
			}
		}
		return nil
	})
}

// TestPartitionRecordSharedAcrossTenants pins the one-record-per-partition
// rule through a release and a re-boot: every tenant's replica on a partition
// points at the server's record of it, so when a migration releases the
// partition and a scale-up boots it again, placeability flips for every
// tenant at the same instant and capacity() never disagrees across tenants.
func TestPartitionRecordSharedAcrossTenants(t *testing.T) {
	const part = 3
	onOneNode(t, poolTestConfig(), func(pl *core.Platform, p *sim.Proc, srv *Server) error {
		for _, tn := range srv.tenants {
			for i, rep := range tn.reps {
				if rep.part != srv.parts[i] {
					t.Errorf("tenant %s replica %d has its own partition record", tn.spec.Name, i)
				}
			}
		}
		var flips []bool // the partition's placeability, one entry per change
		drained := false
		pl.K.Spawn("placeability-sampler", func(sp *sim.Proc) {
			for !drained {
				first := srv.tenants[0]
				placeable := !first.reps[part].unplaceable()
				usable, total := srv.capacity(first)
				for _, tn := range srv.tenants[1:] {
					if got := !tn.reps[part].unplaceable(); got != placeable {
						t.Errorf("at %s partition %d is placeable=%v for %s but %v for %s",
							sim.Duration(sp.Now()), part, placeable, first.spec.Name, got, tn.spec.Name)
					}
					if u, tot := srv.capacity(tn); u != usable || tot != total {
						t.Errorf("at %s capacity is %d/%d for %s but %d/%d for %s",
							sim.Duration(sp.Now()), usable, total, first.spec.Name, u, tot, tn.spec.Name)
					}
				}
				if len(flips) == 0 || flips[len(flips)-1] != placeable {
					flips = append(flips, placeable)
				}
				sp.Sleep(5 * sim.Microsecond)
			}
		})
		pl.K.Spawn("scale-up", func(sp *sim.Proc) {
			for !srv.parts[part].released {
				sp.Sleep(50 * sim.Microsecond)
			}
			if usable, total := srv.capacity(srv.tenants[0]); usable != total-1 {
				t.Errorf("released partition: capacity %d/%d, want %d/%d", usable, total, total-1, total)
			}
			srv.elScaleUp(sp)
		})
		res, err := srv.Serve(p)
		drained = true
		if err != nil {
			return err
		}
		if want := []bool{true, false, true}; !slices.Equal(flips, want) {
			t.Errorf("partition %d placeability went %v, want %v (in service, released, re-booted)", part, flips, want)
		}
		if res.Elastic.Migrations != 1 || res.Elastic.ScaleUps != 1 {
			t.Errorf("vacuous run: %d migrations, %d scale-ups", res.Elastic.Migrations, res.Elastic.ScaleUps)
		}
		for _, tr := range res.Tenants {
			if tr.Offered != tr.Admitted+tr.Shed || tr.Admitted != tr.Completed+tr.Failed || tr.Duplicates != 0 {
				t.Errorf("tenant %s: conservation broken: %+v", tr.Name, tr)
			}
		}
		return nil
	})
}

// TestQuarantineRetiresExecutedWorker: on the executed plane a crash-loop
// quarantine is terminal. The third panic lands while partition 0's replica
// holds requests; every one of them is replayed once and completes on the
// surviving partition, and the quarantined replica's worker exits instead of
// waiting for a release nothing issues.
func TestQuarantineRetiresExecutedWorker(t *testing.T) {
	cfg := Config{
		Seed:           7,
		Window:         10 * sim.Millisecond,
		Policy:         DeviceAffinity,
		MaxBatch:       4,
		BatchWindow:    50 * sim.Microsecond,
		GPUPartitions:  2,
		GPUFlopsPerNs:  400,
		KeepRequests:   true,
		RequestTimeout: 500 * sim.Microsecond,
		Supervise:      true,
		Tenants: []TenantSpec{{
			Name: "tenant-0", Arrival: Poisson, Rate: 3000, QueueCap: 256,
			Mix: []WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}},
		}},
	}
	onOneNode(t, cfg, func(pl *core.Platform, p *sim.Proc, srv *Server) error {
		rep := srv.tenants[0].reps[0]
		part := srv.parts[0].sp
		held := -1
		var replays map[*Request]int // every admitted request's replays at the quarantine
		pl.K.Spawn("crash-loop", func(cp *sim.Proc) {
			cp.Sleep(2 * sim.Millisecond)
			for {
				for rep.down || rep.outstanding == 0 {
					cp.Sleep(10 * sim.Microsecond)
				}
				if rec := pl.SPM.Fail(part, spm.FailPanic); rec != nil && rec.Quarantined {
					held = rep.outstanding
					replays = make(map[*Request]int, len(srv.requests))
					for _, r := range srv.requests {
						replays[r] = r.Replays
					}
					return
				}
				if err := pl.SPM.AwaitReady(cp, part); err != nil {
					t.Errorf("recovery before the third panic: %v", err)
					return
				}
			}
		})
		res, err := srv.Serve(p)
		if err != nil {
			return err
		}
		if held <= 0 {
			t.Errorf("quarantine caught %d held requests; the scenario needs some", held)
			return nil
		}
		replayed := 0
		for _, r := range res.Requests {
			if r.Replays == replays[r] {
				continue
			}
			replayed++
			if r.Replays != replays[r]+1 || r.Err != nil || r.Done == 0 {
				t.Errorf("held request %d: %d replays (was %d), err %v, done at %s; want one replay and a completion",
					r.ID, r.Replays, replays[r], r.Err, sim.Duration(r.Done))
			}
		}
		if replayed != held {
			t.Errorf("%d requests replayed after the quarantine, %d were held", replayed, held)
		}
		if rep.outstanding != 0 || rep.pending.Len() != 0 {
			t.Errorf("quarantined replica still holds %d requests (%d batches)", rep.outstanding, rep.pending.Len())
		}
		if !rep.worker.Dead() {
			t.Error("the quarantined replica's worker is still alive")
		}
		for _, tr := range res.Tenants {
			if tr.Offered != tr.Admitted+tr.Shed || tr.Admitted != tr.Completed+tr.Failed || tr.Duplicates != 0 {
				t.Errorf("tenant %s: conservation broken: %+v", tr.Name, tr)
			}
		}
		return nil
	})
}
