package serve_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cronus/internal/core"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
	"cronus/internal/workload/rodinia"
)

// twoTenantConfig is the shared base load: two Poisson tenants on a pool of
// two GPU partitions, inference-heavy with a sprinkle of general compute.
func twoTenantConfig(seed int64) serve.Config {
	nn := rodinia.NN()
	return serve.Config{
		Seed:          seed,
		Window:        20 * sim.Millisecond,
		Policy:        serve.LeastOutstanding,
		MaxBatch:      4,
		BatchWindow:   50 * sim.Microsecond,
		GPUPartitions: 2,
		KeepRequests:  true,
		Tenants: []serve.TenantSpec{
			{
				Name: "alpha", Arrival: serve.Poisson, Rate: 4000,
				Mix: []serve.WorkClass{
					{Name: "resnet18", Weight: 9, Graph: tvm.ResNet18()},
					{Name: "nn", Weight: 1, Bench: &nn},
				},
			},
			{
				Name: "beta", Arrival: serve.FixedRate, Rate: 800,
				Mix: []serve.WorkClass{
					{Name: "yolov3", Weight: 1, Graph: tvm.YoloV3()},
				},
			},
		},
	}
}

// checkAccounting asserts the conservation law every run must satisfy:
// offered = admitted + shed, admitted = completed + failed, no duplicates.
func checkAccounting(t *testing.T, res *serve.Result) {
	t.Helper()
	for _, tr := range res.Tenants {
		if tr.Offered != tr.Admitted+tr.Shed {
			t.Errorf("%s: offered %d != admitted %d + shed %d", tr.Name, tr.Offered, tr.Admitted, tr.Shed)
		}
		if tr.Admitted != tr.Completed+tr.Failed {
			t.Errorf("%s: admitted %d != completed %d + failed %d (lost requests)",
				tr.Name, tr.Admitted, tr.Completed, tr.Failed)
		}
		if tr.Duplicates != 0 {
			t.Errorf("%s: %d duplicate completions", tr.Name, tr.Duplicates)
		}
	}
}

func TestServeCompletesAllAdmitted(t *testing.T) {
	res, err := serve.Run(twoTenantConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)
	for _, tr := range res.Tenants {
		if tr.Admitted == 0 {
			t.Errorf("%s admitted no requests", tr.Name)
		}
		if tr.Failed != 0 {
			t.Errorf("%s: %d failed requests", tr.Name, tr.Failed)
		}
		if tr.P50NS <= 0 || tr.P95NS < tr.P50NS || tr.P99NS < tr.P95NS {
			t.Errorf("%s: non-monotone quantiles p50=%v p95=%v p99=%v",
				tr.Name, tr.P50NS, tr.P95NS, tr.P99NS)
		}
	}
	if res.Batches == 0 {
		t.Error("no batches placed")
	}
}

// TestServeDeterministic: same seed, byte-identical reports and request
// timelines across two full runs — the plane's determinism contract.
func TestServeDeterministic(t *testing.T) {
	a, err := serve.Run(twoTenantConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := serve.Run(twoTenantConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Report(), b.Report()
	if !bytes.Equal([]byte(ra), []byte(rb)) {
		t.Fatalf("reports differ across identical runs:\n--- run A ---\n%s--- run B ---\n%s", ra, rb)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("request counts differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		x, y := a.Requests[i], b.Requests[i]
		if x.ID != y.ID || x.Tenant != y.Tenant || x.Class() != y.Class() ||
			x.Arrived != y.Arrived || x.Done != y.Done || x.Replays != y.Replays {
			t.Fatalf("request %d differs: %+v vs %+v", i, x, y)
		}
	}
	// A different seed must actually change the timeline (the RNG is wired
	// through, not ignored).
	c, err := serve.Run(twoTenantConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal([]byte(ra), []byte(c.Report())) {
		t.Error("different seeds produced identical reports")
	}
}

// saturationConfig offers one tenant more load than an unbatched replica
// can serve, so batching amortization is visible in p50 latency. The high
// FLOPs rate makes per-item device work (~7µs) comparable to the fixed
// per-batch overhead (sRPC round trips, kernel dispatch), which is exactly
// the regime dynamic batching exists for.
func saturationConfig(maxBatch int) serve.Config {
	return serve.Config{
		Seed:          3,
		Window:        20 * sim.Millisecond,
		Policy:        serve.RoundRobin,
		MaxBatch:      maxBatch,
		BatchWindow:   40 * sim.Microsecond,
		GPUPartitions: 1,
		GPUFlopsPerNs: 400,
		Tenants: []serve.TenantSpec{
			{
				Name: "sat", Arrival: serve.FixedRate, Rate: 90000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}},
			},
		},
	}
}

// TestBatchingAmortizes: at the same offered load, batched p50 per-request
// latency must be strictly below unbatched p50 (ISSUE 3 acceptance).
func TestBatchingAmortizes(t *testing.T) {
	unbatched, err := serve.Run(saturationConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := serve.Run(saturationConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	u, b := unbatched.Tenants[0], batched.Tenants[0]
	if u.Completed == 0 || b.Completed == 0 {
		t.Fatalf("no completions: unbatched %d, batched %d", u.Completed, b.Completed)
	}
	if b.P50NS >= u.P50NS {
		t.Errorf("batched p50 %.0fns not below unbatched p50 %.0fns", b.P50NS, u.P50NS)
	}
	if batched.AvgBatch() <= 1.5 {
		t.Errorf("saturated run barely batched: avg %.2f", batched.AvgBatch())
	}
	if b.GoodputRPS <= u.GoodputRPS {
		t.Errorf("batched goodput %.0f/s not above unbatched %.0f/s", b.GoodputRPS, u.GoodputRPS)
	}
}

// TestAdmissionShedsTyped: beyond the queue bound, submissions shed with a
// typed *OverloadError, and the shed shows up in the result.
func TestAdmissionShedsTyped(t *testing.T) {
	cfg := serve.Config{
		Seed:          5,
		Window:        10 * sim.Millisecond,
		MaxBatch:      2,
		GPUPartitions: 1,
		Tenants: []serve.TenantSpec{
			{
				Name: "burst", Arrival: serve.FixedRate, Rate: 40000, QueueCap: 8,
				Mix: []serve.WorkClass{{Name: "yolov3", Graph: tvm.YoloV3()}},
			},
		},
	}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)
	tr := res.Tenants[0]
	if tr.Shed == 0 {
		t.Fatal("overloaded tenant shed nothing")
	}
	if tr.ShedRate <= 0 {
		t.Errorf("shed rate not reported: %v", tr.ShedRate)
	}
	// The typed error is visible to direct submitters.
	var oe *serve.OverloadError
	if !errors.As(&serve.OverloadError{Tenant: "x", Cap: 1}, &oe) {
		t.Fatal("OverloadError does not satisfy errors.As")
	}
	if oe.Error() == "" {
		t.Error("empty OverloadError message")
	}
}

// TestPolicies: every placement policy completes all admitted requests, and
// round-robin/least-outstanding actually spread across the pool.
func TestPolicies(t *testing.T) {
	for _, pol := range []serve.Policy{serve.RoundRobin, serve.LeastOutstanding, serve.DeviceAffinity} {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			cfg := twoTenantConfig(11)
			cfg.Policy = pol
			res, err := serve.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAccounting(t, res)
			for _, tr := range res.Tenants {
				if tr.Completed == 0 {
					t.Errorf("%s completed nothing under %s", tr.Name, pol)
				}
			}
		})
	}
}

// TestDependentSettingsRefusedAlone: a setting that only means something with
// another is refused without it, instead of being dropped without a word.
func TestDependentSettingsRefusedAlone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*serve.Config)
		want   string
	}{
		{"slo-admission-without-slo", func(c *serve.Config) { c.SLOAdmission = true }, "SLOAdmission requires SLO"},
		{"ticket-ttl-without-tickets", func(c *serve.Config) { c.AttestTicketTTL = sim.Millisecond }, "require AttestTickets"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := twoTenantConfig(1)
			tc.mutate(&cfg)
			if _, err := serve.Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestServeBadConfigs: constructor-level validation errors surface.
func TestServeBadConfigs(t *testing.T) {
	if _, err := serve.Run(serve.Config{}); err == nil {
		t.Error("no tenants: want error")
	}
	nn := rodinia.NN()
	bad := serve.Config{
		GPUPartitions: 1,
		Tenants: []serve.TenantSpec{{
			Name: "x", Rate: 100,
			Mix: []serve.WorkClass{{Name: "both", Graph: tvm.ResNet18(), Bench: &nn}},
		}},
	}
	if _, err := serve.Run(bad); err == nil {
		t.Error("class with both Graph and Bench: want error")
	}
	toomany := twoTenantConfig(1)
	toomany.GPUPartitions = 3
	pcfg := core.DefaultConfig()
	pcfg.GPUs = 2
	err := core.Run(pcfg, func(pl *core.Platform, p *sim.Proc) error {
		_, err := serve.New(p, pl, toomany)
		return err
	})
	if err == nil {
		t.Error("more partitions than GPUs: want error")
	}
}

// TestWorstShareIsTheShortestTenant holds Result.WorstShare to the fewest
// completed requests over the mean: equal counts, no tenant and nothing
// completed give 1, a starved tenant 0, and one of four tenants 26% short of
// the other three 0.79, its count over the mean of the four.
func TestWorstShareIsTheShortestTenant(t *testing.T) {
	for _, c := range []struct {
		completed []uint64
		want      float64
	}{
		{nil, 1},
		{[]uint64{0, 0, 0}, 1},
		{[]uint64{700}, 1},
		{[]uint64{700, 700, 700, 700}, 1},
		{[]uint64{700, 0}, 0},
		{[]uint64{100, 100, 100, 74}, 74 * 4 / 374.0},
		{[]uint64{300, 100, 200}, 0.5},
	} {
		var r serve.Result
		for i, x := range c.completed {
			r.Tenants = append(r.Tenants, serve.TenantResult{Name: string(rune('a' + i)), Completed: x})
		}
		if got := r.WorstShare(); got != c.want {
			t.Errorf("completed %v: WorstShare = %v, want %v", c.completed, got, c.want)
		}
	}
}

// TestFairnessIsJainsIndex holds Result.Fairness to Jain's index at its two
// reference points: equal completed counts give 1, and one of n tenants
// starved while the rest complete the same gives (n−1)/n.
func TestFairnessIsJainsIndex(t *testing.T) {
	for n := 1; n <= 5; n++ {
		var r serve.Result
		for i := range n {
			r.Tenants = append(r.Tenants, serve.TenantResult{Name: string(rune('a' + i)), Completed: 700})
		}
		if got := r.Fairness(); got != 1 {
			t.Errorf("%d equal tenants: Fairness = %v, want 1", n, got)
		}
		if n < 2 {
			continue
		}
		r.Tenants[n-1].Completed = 0
		if got, want := r.Fairness(), float64(n-1)/float64(n); got != want {
			t.Errorf("one of %d tenants starved: Fairness = %v, want %v", n, got, want)
		}
	}
	if got := (&serve.Result{Tenants: make([]serve.TenantResult, 3)}).Fairness(); got != 1 {
		t.Errorf("no tenant completed anything: Fairness = %v, want 1", got)
	}
}
