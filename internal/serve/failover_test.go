package serve_test

import (
	"bytes"
	"testing"

	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// failoverConfig pins two tenants to distinct partitions (device-affinity:
// tenant index mod pool size) and proceed-traps the victim's partition in
// the middle of the load window.
func failoverConfig(seed int64) serve.Config {
	return serve.Config{
		Seed:          seed,
		Window:        30 * sim.Millisecond,
		Policy:        serve.DeviceAffinity,
		MaxBatch:      4,
		BatchWindow:   50 * sim.Microsecond,
		GPUPartitions: 2,
		KeepRequests:  true,
		FailAt:        11 * sim.Millisecond,
		Tenants: []serve.TenantSpec{
			{
				// Tenant 0 -> gpu-part0: the victim. ~0.8 utilization, so
				// the injection lands mid-request.
				Name: "victim", Arrival: serve.FixedRate, Rate: 7000, QueueCap: 256,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}},
			},
			{
				// Tenant 1 -> gpu-part1: the survivor.
				Name: "survivor", Arrival: serve.FixedRate, Rate: 2000, QueueCap: 256,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}},
			},
		},
	}
}

// TestConcurrentFailover is the ISSUE 3 failover acceptance: with two
// tenants on distinct partitions and a FailPanic injected mid-request on
// one of them, the survivor's requests complete untouched while the
// victim's in-flight requests are replayed exactly once — zero lost, zero
// duplicated in both tenants.
func TestConcurrentFailover(t *testing.T) {
	res, err := serve.Run(failoverConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)

	if len(res.Failures) != 1 {
		t.Fatalf("failures recorded = %d, want 1", len(res.Failures))
	}
	f := res.Failures[0]
	if f.Partition != "gpu-part0" {
		t.Errorf("failed partition = %s, want gpu-part0", f.Partition)
	}
	if !f.Recovered || f.DowntimeNS <= 0 {
		t.Errorf("no recovery recorded: recovered=%v downtime=%v", f.Recovered, f.DowntimeNS)
	}

	victim := res.Tenant("victim")
	survivor := res.Tenant("survivor")

	// Survivor: completely untouched — every admitted request completed,
	// none failed, none replayed.
	if survivor.Completed != survivor.Admitted || survivor.Failed != 0 {
		t.Errorf("survivor lost requests: admitted=%d completed=%d failed=%d",
			survivor.Admitted, survivor.Completed, survivor.Failed)
	}
	if survivor.Replayed != 0 {
		t.Errorf("survivor had %d replays, want 0", survivor.Replayed)
	}

	// Victim: zero lost (everything admitted completed after recovery),
	// zero duplicated, and the requests caught by the failure were
	// replayed exactly once.
	if victim.Completed != victim.Admitted || victim.Failed != 0 {
		t.Errorf("victim lost requests: admitted=%d completed=%d failed=%d",
			victim.Admitted, victim.Completed, victim.Failed)
	}
	if victim.Replayed == 0 {
		t.Error("victim recorded no replays; the injected failure caught nothing in flight")
	}

	// Per-request invariants from the retained records.
	for _, r := range res.Requests {
		if r.Done == 0 {
			t.Errorf("request %d (%s) never completed", r.ID, r.Tenant)
		}
		if r.Err != nil {
			t.Errorf("request %d (%s) failed: %v", r.ID, r.Tenant, r.Err)
		}
		switch r.Tenant {
		case "survivor":
			if r.Replays != 0 {
				t.Errorf("survivor request %d replayed %d times", r.ID, r.Replays)
			}
		case "victim":
			if r.Replays > 1 {
				t.Errorf("victim request %d replayed %d times, want at most once", r.ID, r.Replays)
			}
		}
	}

	// The single injected failure must replay at least the one batch that
	// was mid-request, but with one failure no request can replay twice —
	// "exactly once" for everything the failure caught.
	replayedReqs := 0
	for _, r := range res.Requests {
		if r.Replays == 1 {
			replayedReqs++
		}
	}
	if uint64(replayedReqs) != victim.Replayed {
		t.Errorf("replay accounting mismatch: %d requests with Replays=1, tenant counter %d",
			replayedReqs, victim.Replayed)
	}
}

// TestFailoverDeterministic: the failure-injected run is as deterministic
// as the healthy one — recovery timing is virtual-time too.
func TestFailoverDeterministic(t *testing.T) {
	a, err := serve.Run(failoverConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	b, err := serve.Run(failoverConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(a.Report()), []byte(b.Report())) {
		t.Fatalf("failover reports differ:\n--- A ---\n%s--- B ---\n%s", a.Report(), b.Report())
	}
}

// TestFailoverSharedPool: least-outstanding over a shared two-partition
// pool — both tenants have replicas on the failed partition, work routes
// around it during the outage, and still nothing is lost or duplicated.
func TestFailoverSharedPool(t *testing.T) {
	cfg := failoverConfig(55)
	cfg.Policy = serve.LeastOutstanding
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)
	for _, tr := range res.Tenants {
		if tr.Completed != tr.Admitted || tr.Failed != 0 {
			t.Errorf("%s: admitted=%d completed=%d failed=%d",
				tr.Name, tr.Admitted, tr.Completed, tr.Failed)
		}
	}
}
