package serve_test

import (
	"fmt"
	"strings"
	"testing"

	"cronus/internal/cluster"
	"cronus/internal/elastic"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
	"cronus/internal/workload/rodinia"
)

// shardedConfig is the common flow-model-plane test load: two open-loop
// inference tenants over two partitions, heavy enough that batching and
// both lanes engage.
func shardedConfig() serve.Config {
	return serve.Config{
		Seed:          23,
		Window:        4 * sim.Millisecond,
		Policy:        serve.RoundRobin,
		MaxBatch:      4,
		BatchWindow:   40 * sim.Microsecond,
		GPUPartitions: 2,
		GPUFlopsPerNs: 400,
		Shards:        2,
		KeepRequests:  true,
		Tenants: []serve.TenantSpec{
			{Name: "alpha", Arrival: serve.FixedRate, Rate: 60000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}}},
			{Name: "beta", Arrival: serve.Poisson, Rate: 30000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}}},
		},
	}
}

// requestsDigest renders the per-request records into a comparable string.
func requestsDigest(t *testing.T, res *serve.Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range res.Requests {
		fmt.Fprintf(&b, "%d %s/%s %d+%d replays=%d retries=%d err=%v\n",
			r.ID, r.Tenant, r.Class(), r.Arrived, r.Latency(), r.Replays, r.Retries, r.Err)
	}
	return b.String()
}

// TestShardedDeterminism pins the determinism contract on the flow-model
// plane: the same config must produce byte-identical reports and per-request
// records across reruns and across Shards values.
func TestShardedDeterminism(t *testing.T) {
	base := shardedConfig()
	ref, err := serve.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	refReport, refReqs := ref.Report(), requestsDigest(t, ref)
	if ref.Tenants[0].Completed == 0 || ref.Tenants[1].Completed == 0 {
		t.Fatalf("sharded run served nothing:\n%s", refReport)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*serve.Config)
	}{
		{"rerun", func(c *serve.Config) {}},
		{"shards=4", func(c *serve.Config) { c.Shards = 4 }},
		{"shards=8", func(c *serve.Config) { c.Shards = 8 }},
	} {
		cfg := shardedConfig()
		tc.mutate(&cfg)
		res, err := serve.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.Report(); got != refReport {
			t.Errorf("%s: report diverged\n--- ref ---\n%s--- got ---\n%s", tc.name, refReport, got)
		}
		if got := requestsDigest(t, res); got != refReqs {
			t.Errorf("%s: per-request records diverged", tc.name)
		}
	}
}

// TestShardsValueUnobservable pins Config.Shards as a plane selector and
// nothing else: for every value >= 2 the report, the metrics snapshot and the
// kept request records are byte-identical — on a single node, on a two-node
// cluster losing a node, and through a migration with an attestation storm.
func TestShardsValueUnobservable(t *testing.T) {
	crash := clusterConfig()
	crash.GPUFlopsPerNs = 100
	crash.NodeFaults = []cluster.Fault{{Kind: cluster.NodeCrash, Node: 1, At: 1500 * sim.Microsecond}}
	migrate := elasticConfig()
	migrate.AttestTickets = true
	migrate.AttestFaults = []serve.AttestFault{{Kind: serve.AttestStorm, At: 2 * sim.Millisecond}}
	migrate.Migrations = []serve.Migration{
		{At: 1500 * sim.Microsecond, From: elastic.Endpoint{Part: 3}, To: elastic.Endpoint{Part: 0}},
	}
	for _, tc := range []struct {
		name string
		cfg  serve.Config
	}{
		{"single-node", shardedConfig()},
		{"cluster-node-crash", crash},
		{"migration-attest-storm", migrate},
	} {
		var ref string
		for _, shards := range []int{2, 4, 8} {
			cfg := tc.cfg
			cfg.Shards = shards
			res, err := serve.Run(cfg)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			if got := observable(t, res); ref == "" {
				ref = got
			} else if got != ref {
				t.Errorf("%s: Shards=%d is observable (report, metrics or request records differ from Shards=2)",
					tc.name, shards)
			}
		}
	}
}

// observable is everything a run shows its caller: the report, the metrics
// snapshot and the per-request records.
func observable(t *testing.T, res *serve.Result) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(res.Report())
	if err := res.Metrics.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(requestsDigest(t, res))
	return b.String()
}

// TestNodesOneIsSingleNode pins the pool model: a single machine is the pool
// of one node, so Nodes 0 (unset) and Nodes 1 are the same run on both planes
// — report, metrics snapshot and request records — through a clean window, a
// mid-run partition failure and a planned migration under an attest storm.
func TestNodesOneIsSingleNode(t *testing.T) {
	executed := shardedConfig()
	executed.Shards = 0
	executed.FailAt = 1500 * sim.Microsecond
	failover := shardedConfig()
	failover.FailAt = 1500 * sim.Microsecond
	migrate := elasticConfig()
	migrate.AttestTickets = true
	migrate.AttestFaults = []serve.AttestFault{{Kind: serve.AttestStorm, At: 2 * sim.Millisecond}}
	migrate.Migrations = []serve.Migration{
		{At: 1500 * sim.Microsecond, From: elastic.Endpoint{Part: 3}, To: elastic.Endpoint{Part: 0}},
	}
	for _, tc := range []struct {
		name string
		cfg  serve.Config
	}{
		{"executed-failover", executed},
		{"flow", shardedConfig()},
		{"flow-failover", failover},
		{"flow-migration-attest-storm", migrate},
	} {
		var ref string
		for _, nodes := range []int{0, 1} {
			cfg := tc.cfg
			cfg.Nodes = nodes
			res, err := serve.Run(cfg)
			if err != nil {
				t.Fatalf("%s nodes=%d: %v", tc.name, nodes, err)
			}
			if res.Nodes != 0 || len(res.NodeEvents) != 0 {
				t.Errorf("%s nodes=%d: a pool of one presents as a cluster (Nodes=%d, %d node events)",
					tc.name, nodes, res.Nodes, len(res.NodeEvents))
			}
			if got := observable(t, res); ref == "" {
				ref = got
			} else if got != ref {
				t.Errorf("%s: Nodes=1 diverged from Nodes=0 (report, metrics or request records)", tc.name)
			}
		}
	}
}

// TestIntakeIdenticalAcrossPlanes runs one config on both planes. Arrival,
// admission, request identity and accounting are one code path, so under an
// unsaturated load (neither plane sheds) the kept records must list the
// identical (ID, Tenant, Class, Arrived) in the identical admission order —
// Arrived as an offset from the first arrival, since the planes boot for
// different lengths of virtual time before serving starts; latency may differ — the planes model the data path differently — but
// conservation must hold on both. Past the admission cap what is shed
// legitimately depends on each plane's service time, yet the offered
// timeline must still match.
func TestIntakeIdenticalAcrossPlanes(t *testing.T) {
	mk := func(shards int, scale float64) serve.Config {
		cfg := shardedConfig()
		cfg.Shards = shards
		mix := []serve.WorkClass{
			{Name: "resnet18", Weight: 2, Graph: tvm.ResNet18()},
			{Name: "resnet50", Weight: 1, Graph: tvm.ResNet50()},
		}
		cfg.Tenants[0].Rate, cfg.Tenants[0].Mix = 20000*scale, mix
		cfg.Tenants[1].Rate, cfg.Tenants[1].Mix = 10000*scale, mix
		return cfg
	}
	run := func(shards int, scale float64) *serve.Result {
		res, err := serve.Run(mk(shards, scale))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for _, tr := range res.Tenants {
			if tr.Offered != tr.Admitted+tr.Shed || tr.Admitted != tr.Completed+tr.Failed || tr.Duplicates != 0 {
				t.Errorf("shards=%d tenant %s: conservation broken: %+v", shards, tr.Name, tr)
			}
		}
		return res
	}
	intake := func(res *serve.Result) string {
		var b strings.Builder
		for _, r := range res.Requests {
			fmt.Fprintf(&b, "%d %s/%s +%d\n", r.ID, r.Tenant, r.Class(), r.Arrived-res.Requests[0].Arrived)
		}
		return b.String()
	}

	classic, flow := run(0, 1), run(4, 1)
	for i, c := range classic.Tenants {
		if f := flow.Tenants[i]; c.Admitted == 0 || c.Shed != 0 || f.Shed != 0 {
			t.Fatalf("tenant %s: load is not unsaturated (executed %+v, flow %+v)", c.Name, c, f)
		}
	}
	if got, want := intake(flow), intake(classic); got != want {
		t.Errorf("admitted request lists differ between the planes\n--- executed ---\n%s--- flow ---\n%s", want, got)
	}

	classic, flow = run(0, 50), run(4, 50)
	for i, c := range classic.Tenants {
		f := flow.Tenants[i]
		if c.Shed == 0 || f.Shed == 0 {
			t.Errorf("tenant %s: overload shed nothing (executed %d, flow %d)", c.Name, c.Shed, f.Shed)
		}
		if c.Offered != f.Offered {
			t.Errorf("tenant %s: offered %d on the executed plane, %d on the flow model", c.Name, c.Offered, f.Offered)
		}
	}
}

// TestShardedFailover injects the mid-run partition panic on the flow-model
// plane. DeviceAffinity pins tenant alpha to the failing partition and a
// slow device keeps its lanes saturated, so the failure always catches
// batches in flight: they must replay (not vanish, not duplicate), the
// pinned tenant must drain through the recovery + backlog-flush path, the
// survivor must be untouched, and the report must stay byte-identical
// across Shards values.
func TestShardedFailover(t *testing.T) {
	mk := func(shards int) serve.Config {
		cfg := shardedConfig()
		cfg.Policy = serve.DeviceAffinity
		cfg.GPUFlopsPerNs = 100
		cfg.Shards = shards
		cfg.FailAt = 1500 * sim.Microsecond
		return cfg
	}
	ref, err := serve.Run(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	total := func(res *serve.Result) (admitted, completed, failed, replayed, dups uint64) {
		for _, tr := range res.Tenants {
			admitted += tr.Admitted
			completed += tr.Completed
			failed += tr.Failed
			replayed += tr.Replayed
			dups += tr.Duplicates
		}
		return
	}
	admitted, completed, failed, replayed, dups := total(ref)
	if admitted != completed+failed {
		t.Errorf("conservation broken: admitted %d != completed %d + failed %d", admitted, completed, failed)
	}
	if replayed == 0 {
		t.Errorf("no replays recorded across a mid-run partition failure:\n%s", ref.Report())
	}
	if dups != 0 {
		t.Errorf("%d duplicate completions", dups)
	}
	if len(ref.Failures) != 1 || !ref.Failures[0].Recovered {
		t.Errorf("expected one recovered failure, got %+v", ref.Failures)
	}
	if surv := ref.Tenant("beta"); surv == nil || surv.Replayed != 0 || surv.Failed != 0 {
		t.Errorf("survivor tenant perturbed by the failover: %+v", surv)
	}
	refReport, refReqs := ref.Report(), requestsDigest(t, ref)
	res, err := serve.Run(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report(); got != refReport {
		t.Errorf("shards=4: faulted report diverged\n--- ref ---\n%s--- got ---\n%s", refReport, got)
	}
	if got := requestsDigest(t, res); got != refReqs {
		t.Errorf("shards=4: faulted per-request records diverged")
	}
}

// TestShardsOneIsClassic pins the compatibility contract: Shards values
// below 2 must take the classic plane untouched, byte-identically.
func TestShardsOneIsClassic(t *testing.T) {
	cfg := shardedConfig()
	cfg.Shards = 0
	cfg.FailAt = 1500 * sim.Microsecond
	a, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	b, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Errorf("Shards=1 diverged from Shards=0\n--- 0 ---\n%s--- 1 ---\n%s", a.Report(), b.Report())
	}
	if requestsDigest(t, a) != requestsDigest(t, b) {
		t.Errorf("Shards=1 per-request records diverged from Shards=0")
	}
}

// TestShardedValidation pins the refusals of the flow-model plane.
func TestShardedValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*serve.Config)
	}{
		{"trace", func(c *serve.Config) { c.Trace = true }},
		{"supervise", func(c *serve.Config) { c.Supervise = true }},
		{"bench-class", func(c *serve.Config) {
			nn := rodinia.NN()
			c.Tenants[0].Mix = []serve.WorkClass{{Name: "nn", Bench: &nn}}
		}},
	} {
		cfg := shardedConfig()
		tc.mutate(&cfg)
		if _, err := serve.Run(cfg); err == nil {
			t.Errorf("%s: flow-model config accepted, want a validation error", tc.name)
		}
	}
}

// TestShardedBatchCap verifies the batch-8 window actually fills batches on
// the flow-model plane: at 90k fixed-rate the eighth arrival lands 77.8µs after
// the first, so an 80µs window must yield an average batch near 8.
func TestShardedBatchCap(t *testing.T) {
	cfg := shardedConfig()
	cfg.Tenants = cfg.Tenants[:1]
	cfg.Tenants[0].Rate = 90000
	cfg.GPUPartitions = 1
	cfg.MaxBatch = 8
	cfg.BatchWindow = 80 * sim.Microsecond
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ab := res.AvgBatch(); ab < 7.5 {
		t.Errorf("avg batch %.2f, want >= 7.5 (the 80µs window must admit 8 arrivals at 90k req/s)", ab)
	}
}

// TestShardedRequestTimeout pins the lane-deadline model: a RequestTimeout
// smaller than every batch's service time makes every request resolve as a
// watchdog timeout with the classic accounting — four attempts (the first
// plus three retries), timeouts counted per attempt, retries per attempt
// after the first — after occupying its lane for the four timeout windows
// and the 100+200+400µs backoff gaps, while conservation still holds.
func TestShardedRequestTimeout(t *testing.T) {
	cfg := shardedConfig()
	cfg.RequestTimeout = 10 * sim.Microsecond // far below resnet service time
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		if tr.Completed != 0 {
			t.Errorf("tenant %s: %d requests completed under an unreachable timeout", tr.Name, tr.Completed)
		}
		if tr.Admitted != tr.Failed {
			t.Errorf("tenant %s: conservation broken: admitted %d != failed %d", tr.Name, tr.Admitted, tr.Failed)
		}
		if tr.Admitted > 0 && tr.Timeouts == 0 {
			t.Errorf("tenant %s: no timeouts counted", tr.Name)
		}
	}
	const attempts = 4
	laneFloor := attempts*cfg.RequestTimeout + 700*sim.Microsecond
	for _, r := range res.Requests {
		te, ok := r.Err.(*serve.TimeoutError)
		if !ok {
			t.Fatalf("request %d: error %v, want *TimeoutError", r.ID, r.Err)
		}
		if te.Attempts != attempts {
			t.Fatalf("request %d: %d attempts, want %d", r.ID, te.Attempts, attempts)
		}
		if r.Retries != attempts-1 {
			t.Fatalf("request %d: %d retries, want %d", r.ID, r.Retries, attempts-1)
		}
		if r.Latency() < laneFloor {
			t.Fatalf("request %d: latency %v below the lane's timeout schedule %v", r.ID, r.Latency(), laneFloor)
		}
	}
}

// TestShardedTimeoutInert pins the other half of the lane-deadline model: a
// RequestTimeout no batch ever exceeds must leave the run byte-identical to
// the same config without one.
func TestShardedTimeoutInert(t *testing.T) {
	base := shardedConfig()
	ref, err := serve.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedConfig()
	cfg.RequestTimeout = 10 * sim.Second // no lane ever serves this long
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Report() != res.Report() {
		t.Errorf("an unreachable RequestTimeout changed the report\n--- without ---\n%s--- with ---\n%s",
			ref.Report(), res.Report())
	}
	if requestsDigest(t, ref) != requestsDigest(t, res) {
		t.Errorf("an unreachable RequestTimeout changed the per-request records")
	}
}
