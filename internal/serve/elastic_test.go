package serve_test

import (
	"strings"
	"testing"

	"cronus/internal/elastic"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/tvm"
)

// elasticConfig is the common migration test load: a saturating fixed-rate
// tenant plus a Poisson tenant over four partitions on the flow-model plane.
func elasticConfig() serve.Config {
	return serve.Config{
		Seed:          29,
		Window:        4 * sim.Millisecond,
		Policy:        serve.RoundRobin,
		MaxBatch:      4,
		BatchWindow:   40 * sim.Microsecond,
		GPUPartitions: 4,
		GPUFlopsPerNs: 400,
		Shards:        4,
		KeepRequests:  true,
		Tenants: []serve.TenantSpec{
			{Name: "alpha", Arrival: serve.FixedRate, Rate: 90000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}}},
			{Name: "beta", Arrival: serve.Poisson, Rate: 30000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}}},
		},
	}
}

// elasticTotals asserts the conservation and exactly-once invariants that
// every elastic scenario must preserve.
func elasticTotals(t *testing.T, res *serve.Result) {
	t.Helper()
	for _, tr := range res.Tenants {
		if tr.Offered != tr.Admitted+tr.Shed {
			t.Errorf("tenant %s: offered %d != admitted %d + shed %d", tr.Name, tr.Offered, tr.Admitted, tr.Shed)
		}
		if tr.Admitted != tr.Completed+tr.Failed {
			t.Errorf("tenant %s: admitted %d != completed %d + failed %d", tr.Name, tr.Admitted, tr.Completed, tr.Failed)
		}
		if tr.Duplicates != 0 {
			t.Errorf("tenant %s: %d duplicate completions", tr.Name, tr.Duplicates)
		}
	}
	if res.SplitBrain != 0 {
		t.Errorf("no-split-brain invariant violated %d times", res.SplitBrain)
	}
}

func hasEvent(res *serve.Result, substr string) bool {
	if res.Elastic == nil {
		return false
	}
	for _, ev := range res.Elastic.Events {
		if strings.Contains(ev, substr) {
			return true
		}
	}
	return false
}

// TestPlannedMigration pins the acceptance criterion: a planned migration
// under saturating load completes with zero lost or duplicated requests, the
// full quiesce→checkpoint→transfer→replay→release event trail lands in the
// result, and the released source stops serving.
func TestPlannedMigration(t *testing.T) {
	cfg := elasticConfig()
	cfg.Migrations = []serve.Migration{{
		At:   2 * sim.Millisecond,
		From: elastic.Endpoint{Part: 3},
		To:   elastic.Endpoint{Part: 0},
	}}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elasticTotals(t, res)
	if res.Elastic == nil {
		t.Fatal("Result.Elastic is nil with a migration armed")
	}
	if res.Elastic.Migrations != 1 || res.Elastic.Interrupted != 0 {
		t.Fatalf("migrations=%d interrupted=%d, want 1/0\n%s",
			res.Elastic.Migrations, res.Elastic.Interrupted, res.Report())
	}
	if !hasEvent(res, "migration n0/gpu-part3 -> n0/gpu-part0: quiesce") {
		t.Errorf("missing quiesce event:\n%s", res.Report())
	}
	if !hasEvent(res, "completed") {
		t.Errorf("missing completion event:\n%s", res.Report())
	}
	if c := res.Metrics.Counters["serve.elastic.migrations"]; c != 1 {
		t.Errorf("serve.elastic.migrations counter = %d, want 1", c)
	}
	for _, tr := range res.Tenants {
		if tr.Completed == 0 {
			t.Errorf("tenant %s served nothing across the migration", tr.Name)
		}
	}
}

// TestMigrateInterrupt pins the degradation contract of migrate-interrupt:
// a source dying mid-checkpoint falls back to the ordinary crash-failover
// path — the SPM records a panic on the source partition, in-flight work
// replays exactly once, and nothing is lost or duplicated.
func TestMigrateInterrupt(t *testing.T) {
	cfg := elasticConfig()
	cfg.Migrations = []serve.Migration{{
		At:        2 * sim.Millisecond,
		From:      elastic.Endpoint{Part: 1},
		To:        elastic.Endpoint{Part: 2},
		Interrupt: true,
	}}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elasticTotals(t, res)
	if res.Elastic.Interrupted != 1 || res.Elastic.Migrations != 0 {
		t.Fatalf("interrupted=%d migrations=%d, want 1/0\n%s",
			res.Elastic.Interrupted, res.Elastic.Migrations, res.Report())
	}
	if !hasEvent(res, "interrupted: source failed mid-checkpoint") {
		t.Errorf("missing interrupt event:\n%s", res.Report())
	}
	foundPanic := false
	for _, f := range res.Failures {
		if f.Partition == "gpu-part1" && f.Reason == spm.FailPanic {
			foundPanic = true
		}
	}
	if !foundPanic {
		t.Errorf("no FailPanic record for gpu-part1 — crash-failover did not engage: %+v", res.Failures)
	}
}

// TestDrainRace pins the drain-race fault: a batch force-dispatched onto the
// quiescing source after the policies stopped picking it must still resolve
// exactly once — either completing on the source before the drain deadline
// or replaying with the rest of the in-flight work.
func TestDrainRace(t *testing.T) {
	cfg := elasticConfig()
	cfg.Migrations = []serve.Migration{{
		At:   2 * sim.Millisecond,
		From: elastic.Endpoint{Part: 0},
		To:   elastic.Endpoint{Part: 1},
		Race: true,
	}}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elasticTotals(t, res)
	if res.Elastic.DrainRaces != 1 {
		t.Fatalf("drain-races=%d, want 1\n%s", res.Elastic.DrainRaces, res.Report())
	}
	if res.Elastic.Migrations != 1 {
		t.Fatalf("migrations=%d, want 1 (the raced migration must still complete)", res.Elastic.Migrations)
	}
}

// TestScaleStorm forces the autoscaler through an oscillation window: the
// loop must scale down and back up at least once, the post-storm restore
// must return the plane to full capacity, and all serving invariants hold
// throughout.
func TestScaleStorm(t *testing.T) {
	cfg := elasticConfig()
	cfg.Autoscale = &elastic.Config{
		Interval:  100 * sim.Microsecond,
		HighDepth: 1 << 30, // inert outside the storm
		LowDepth:  -1,
		HighShed:  2,
	}
	cfg.ScaleStorms = []serve.ScaleStorm{{At: sim.Millisecond, Until: 2 * sim.Millisecond}}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elasticTotals(t, res)
	if res.Elastic.ScaleDowns < 1 || res.Elastic.ScaleUps < 1 {
		t.Fatalf("scale-downs=%d scale-ups=%d, want >= 1 each\n%s",
			res.Elastic.ScaleDowns, res.Elastic.ScaleUps, res.Report())
	}
	// Post-storm restore: every release must be matched by a re-activation.
	if res.Elastic.ScaleUps < res.Elastic.ScaleDowns {
		t.Errorf("storm left capacity released: downs=%d ups=%d",
			res.Elastic.ScaleDowns, res.Elastic.ScaleUps)
	}
}

// TestMigrationTicketSurvival pins the attestation contract of a migration:
// every partition boots the same mOS image, so a cross-node move lands on a
// partition with the same measurement — existing session tickets keep
// working (resumes, not cold verifies) and the migrated run pays exactly as
// many cold attestations as an identical run without the migration.
func TestMigrationTicketSurvival(t *testing.T) {
	mk := func(migrate bool) serve.Config {
		cfg := clusterConfig()
		cfg.AttestTickets = true
		cfg.AttestTicketTTL = 10 * sim.Millisecond
		if migrate {
			cfg.Migrations = []serve.Migration{{
				At:   2 * sim.Millisecond,
				From: elastic.Endpoint{Node: 0, Part: 1},
				To:   elastic.Endpoint{Node: 1, Part: 1},
			}}
		}
		return cfg
	}
	base, err := serve.Run(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	moved, err := serve.Run(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	elasticTotals(t, moved)
	if moved.Elastic == nil || moved.Elastic.Migrations != 1 {
		t.Fatalf("cross-node migration did not complete:\n%s", moved.Report())
	}
	baseCold := base.Metrics.Counters["serve.attest.cold"]
	movedCold := moved.Metrics.Counters["serve.attest.cold"]
	if movedCold != baseCold {
		t.Errorf("cold attestations changed across a same-measurement move: base=%d moved=%d",
			baseCold, movedCold)
	}
	if moved.Metrics.Counters["serve.attest.resumed"] == 0 {
		t.Error("no ticket resumes after the migration — tickets did not survive the move")
	}
}

// TestElasticDeterminism pins the determinism contract over every elastic
// scenario: reports and per-request records replay byte-identically.
func TestElasticDeterminism(t *testing.T) {
	mk := func() serve.Config {
		cfg := elasticConfig()
		cfg.Migrations = []serve.Migration{
			{At: 1500 * sim.Microsecond, From: elastic.Endpoint{Part: 3}, To: elastic.Endpoint{Part: 0}, Race: true},
			{At: 2500 * sim.Microsecond, From: elastic.Endpoint{Part: 2}, To: elastic.Endpoint{Part: 1}, Interrupt: true},
		}
		cfg.Autoscale = &elastic.Config{HighDepth: 1 << 30, LowDepth: -1, HighShed: 2}
		cfg.ScaleStorms = []serve.ScaleStorm{{At: 3 * sim.Millisecond, Until: 3500 * sim.Microsecond}}
		return cfg
	}
	ref, err := serve.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	res, err := serve.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Report(), ref.Report(); got != want {
		t.Errorf("rerun: report diverged\n--- ref ---\n%s--- got ---\n%s", want, got)
	}
	if requestsDigest(t, res) != requestsDigest(t, ref) {
		t.Errorf("rerun: per-request records diverged")
	}
}

// TestElasticValidation pins the typed usage errors of the elastic layer.
func TestElasticValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*serve.Config)
	}{
		{"migration on classic plane", func(c *serve.Config) {
			c.Shards = 0
			c.Migrations = []serve.Migration{{At: sim.Millisecond, To: elastic.Endpoint{Part: 1}}}
		}},
		{"storm without autoscale", func(c *serve.Config) {
			c.ScaleStorms = []serve.ScaleStorm{{At: sim.Millisecond, Until: 2 * sim.Millisecond}}
		}},
		{"self migration", func(c *serve.Config) {
			c.Migrations = []serve.Migration{{At: sim.Millisecond}}
		}},
		{"partition out of range", func(c *serve.Config) {
			c.Migrations = []serve.Migration{{At: sim.Millisecond, To: elastic.Endpoint{Part: 9}}}
		}},
		{"missing At", func(c *serve.Config) {
			c.Migrations = []serve.Migration{{To: elastic.Endpoint{Part: 1}}}
		}},
	} {
		cfg := elasticConfig()
		tc.mutate(&cfg)
		if _, err := serve.Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}
