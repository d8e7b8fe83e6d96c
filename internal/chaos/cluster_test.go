package chaos

import "testing"

// The cluster draw table is a pure function of (seed, Options): same inputs, same
// schedule; the crash budget never exceeds Nodes-1 distinct nodes.
func TestCompileClusterDeterministic(t *testing.T) {
	o := clusterOpts()
	for seed := int64(1); seed <= 50; seed++ {
		a, b := mustCompile(t, seed, o), mustCompile(t, seed, o)
		if a.String() != b.String() {
			t.Fatalf("seed %d compiled two different schedules:\n%s\nvs\n%s", seed, a, b)
		}
		crashed := map[int]bool{}
		for _, f := range a.Faults {
			if f.Node < 0 || f.Node >= o.Nodes {
				t.Fatalf("seed %d: fault targets node %d of %d", seed, f.Node, o.Nodes)
			}
			switch f.Kind {
			case KindNodeCrash:
				if crashed[f.Node] {
					t.Fatalf("seed %d: node %d crashed twice", seed, f.Node)
				}
				crashed[f.Node] = true
			case KindNetPartition, KindSlowLink:
				if f.Until <= f.After {
					t.Fatalf("seed %d: %s window empty (%v..%v)", seed, f.Kind, f.After, f.Until)
				}
				if f.Kind == KindSlowLink && f.Mult < 2 {
					t.Fatalf("seed %d: slow-link mult %g < 2", seed, f.Mult)
				}
			default:
				t.Fatalf("seed %d: single-platform kind %q in a cluster schedule", seed, f.Kind)
			}
		}
		if len(crashed) > o.Nodes-1 {
			t.Fatalf("seed %d: %d nodes crashed, budget is %d", seed, len(crashed), o.Nodes-1)
		}
	}
}

// The -kinds parser accepts node-level names alongside the partition-level
// ones, and the cluster draw table honors a restricted mix.
func TestNodeKindParsing(t *testing.T) {
	kinds, err := ParseKinds("node-crash,slow-link")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != KindNodeCrash || kinds[1] != KindSlowLink {
		t.Fatalf("parsed %v", kinds)
	}
	if _, err := ParseKinds("node-melt"); err == nil {
		t.Fatal("unknown node kind accepted")
	}
	o := clusterOpts()
	o.Kinds = []Kind{KindSlowLink}
	for seed := int64(1); seed <= 10; seed++ {
		for _, f := range mustCompile(t, seed, o).Faults {
			if f.Kind != KindSlowLink {
				t.Fatalf("seed %d: restricted mix compiled %q", seed, f.Kind)
			}
		}
	}
	// An empty mix draws every default kind of the cluster topology, never
	// the partition-level faults the fabric cannot inject.
	o.Kinds = nil
	saw := map[Kind]bool{}
	for seed := int64(1); seed <= 30; seed++ {
		for _, f := range mustCompile(t, seed, o).Faults {
			saw[f.Kind] = true
		}
	}
	for _, k := range []Kind{KindNodeCrash, KindNetPartition, KindSlowLink} {
		if !saw[k] {
			t.Errorf("default cluster mix never drew %q over 30 seeds", k)
		}
	}
}

// A crash schedule actually exercises failover: the victim tenants re-hash
// and the faulted report says so.
func TestRunNodeCrashFailover(t *testing.T) {
	o := clusterOpts()
	o.Kinds = []Kind{KindNodeCrash}
	o.Faults = 1
	rr, err := Run(3, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed() {
		t.Fatalf("crash seed violated invariants:\n%s", rr.Report())
	}
	_, crashes := rr.Schedule.faultNodes()
	if len(crashes) != 1 {
		t.Fatalf("schedule compiled %d crashes, want 1:\n%s", len(crashes), rr.Schedule)
	}
	rehomed := 0
	for i := range rr.Faulted.Tenants {
		if rr.Faulted.Tenants[i].Rehomed {
			rehomed++
		}
	}
	if rehomed == 0 {
		t.Fatalf("node crash fired but no tenant rehomed:\n%s", rr.Report())
	}
	if len(rr.Faulted.NodeEvents) == 0 {
		t.Fatalf("node crash fired but the event log is empty:\n%s", rr.Report())
	}
}

// Migration draws are well-formed: endpoints in range, migrate-interrupt
// crosses nodes, drain-race stays on the source node (next partition), and a
// duplicate source degrades to a scale-storm instead of a doomed second
// migration.
func TestMigrationKindsCompile(t *testing.T) {
	o := clusterOpts()
	o.Kinds = migrationKinds
	o.Faults = 6 // enough draws to force duplicate sources on a 2x2 pool
	ppn := o.Partitions / o.Nodes
	sawStormDegrade := false
	for seed := int64(1); seed <= 30; seed++ {
		sources := map[[2]int]bool{}
		for _, f := range mustCompile(t, seed, o).Faults {
			switch f.Kind {
			case KindMigrateInterrupt, KindDrainRace:
				if f.Node < 0 || f.Node >= o.Nodes || f.ToNode < 0 || f.ToNode >= o.Nodes ||
					f.Partition < 0 || f.Partition >= ppn || f.ToPart < 0 || f.ToPart >= ppn {
					t.Fatalf("seed %d: endpoints out of range: %s", seed, f)
				}
				if f.Node == f.ToNode && f.Partition == f.ToPart {
					t.Fatalf("seed %d: migration onto itself: %s", seed, f)
				}
				if f.Kind == KindMigrateInterrupt && f.Node == f.ToNode {
					t.Fatalf("seed %d: migrate-interrupt stayed on one node: %s", seed, f)
				}
				if f.Kind == KindDrainRace && (f.Node != f.ToNode || f.ToPart != (f.Partition+1)%ppn) {
					t.Fatalf("seed %d: drain-race destination drifted: %s", seed, f)
				}
				src := [2]int{f.Node, f.Partition}
				if sources[src] {
					t.Fatalf("seed %d: two migrations share source n%d/gpu-part%d",
						seed, f.Node, f.Partition)
				}
				sources[src] = true
			case KindScaleStorm:
				if f.Until <= f.After {
					t.Fatalf("seed %d: scale-storm window empty (%v..%v)", seed, f.After, f.Until)
				}
				sawStormDegrade = true
			default:
				t.Fatalf("seed %d: kind %q from a migration-only mix", seed, f.Kind)
			}
		}
	}
	if !sawStormDegrade {
		t.Error("6 draws on a 2x2 pool never collided into a scale-storm degrade over 30 seeds")
	}
}

// A migrate-interrupt seed degrades to crash-failover: the migration is
// abandoned mid-checkpoint, the source records a panic, and conservation
// still holds.
func TestRunMigrateInterrupt(t *testing.T) {
	o := clusterOpts()
	o.Kinds = []Kind{KindMigrateInterrupt}
	o.Faults = 1
	rr, err := Run(5, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed() {
		t.Fatalf("migrate-interrupt seed violated invariants:\n%s", rr.Report())
	}
	el := rr.Faulted.Elastic
	if el == nil || el.Interrupted != 1 || el.Migrations != 0 {
		t.Fatalf("want exactly one interrupted migration, got %+v", el)
	}
}

// A drain-race seed completes the migration with the raced batch resolved
// exactly once.
func TestRunDrainRace(t *testing.T) {
	o := clusterOpts()
	o.Kinds = []Kind{KindDrainRace}
	o.Faults = 1
	rr, err := Run(5, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed() {
		t.Fatalf("drain-race seed violated invariants:\n%s", rr.Report())
	}
	el := rr.Faulted.Elastic
	if el == nil || el.Migrations != 1 {
		t.Fatalf("want exactly one completed migration, got %+v", el)
	}
}

// A scale-storm seed forces the autoscaler to oscillate in the faulted run
// while the baseline controller — armed identically but stormless — never
// acts.
func TestRunScaleStorm(t *testing.T) {
	o := clusterOpts()
	o.Kinds = []Kind{KindScaleStorm}
	o.Faults = 1
	rr, err := Run(5, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed() {
		t.Fatalf("scale-storm seed violated invariants:\n%s", rr.Report())
	}
	fe, be := rr.Faulted.Elastic, rr.Baseline.Elastic
	if fe == nil || be == nil {
		t.Fatalf("autoscaler not armed in both runs (faulted=%v baseline=%v)", fe, be)
	}
	if fe.ScaleDowns < 1 || fe.ScaleUps < 1 {
		t.Fatalf("storm never oscillated: %+v", fe)
	}
	if be.ScaleUps != 0 || be.ScaleDowns != 0 {
		t.Fatalf("baseline controller acted without a storm: %+v", be)
	}
}

// A mixed migration-kind soak upholds every invariant and replays
// byte-identically — the `make chaos` migration soak contract.
func TestRunMigrationCampaign(t *testing.T) {
	o := clusterOpts()
	o.Kinds = migrationKinds
	cr, err := RunCampaign(1, 5, o)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Passed() {
		t.Fatalf("migration campaign failed:\n%s", cr.Report())
	}
	again, err := Run(cr.Runs[2].Seed, o)
	if err != nil {
		t.Fatal(err)
	}
	if again.Report() != cr.Runs[2].Report() {
		t.Fatalf("migration seed %d diverged on replay", cr.Runs[2].Seed)
	}
}
