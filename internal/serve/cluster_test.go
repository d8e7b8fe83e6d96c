package serve_test

import (
	"errors"
	"strings"
	"testing"

	"cronus/internal/cluster"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// clusterConfig is the common two-node test load: four tenants hashed over
// two nodes (HashBound 1.0 forces an even 2/2 split), eight partitions in
// four-per-node blocks.
func clusterConfig() serve.Config {
	return serve.Config{
		Seed:          23,
		Window:        4 * sim.Millisecond,
		Policy:        serve.RoundRobin,
		MaxBatch:      4,
		BatchWindow:   40 * sim.Microsecond,
		GPUPartitions: 8,
		GPUFlopsPerNs: 400,
		Shards:        8,
		Nodes:         2,
		HashBound:     1.0,
		KeepRequests:  true,
		Tenants: []serve.TenantSpec{
			{Name: "alpha", Arrival: serve.FixedRate, Rate: 40000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}}},
			{Name: "beta", Arrival: serve.Poisson, Rate: 20000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}}},
			{Name: "gamma", Arrival: serve.FixedRate, Rate: 30000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}}},
			{Name: "delta", Arrival: serve.Poisson, Rate: 15000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}}},
		},
	}
}

func clusterTotals(t *testing.T, res *serve.Result) {
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

// TestClusterPlacement pins the boot-time global placement: with HashBound
// 1.0 the four tenants must split two-and-two over the nodes, every tenant
// must be served, and the run must satisfy conservation and no-split-brain.
func TestClusterPlacement(t *testing.T) {
	res, err := serve.Run(clusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, res)
	if res.Nodes != 2 {
		t.Fatalf("Result.Nodes = %d, want 2", res.Nodes)
	}
	loads := map[int]int{}
	for _, tr := range res.Tenants {
		loads[tr.Home]++
		if tr.Completed == 0 {
			t.Errorf("tenant %s (home n%d) served nothing", tr.Name, tr.Home)
		}
		if tr.Rehomed {
			t.Errorf("tenant %s rehomed without any fault", tr.Name)
		}
	}
	if loads[0] != 2 || loads[1] != 2 {
		t.Errorf("bounded-load split is %v, want 2 tenants per node", loads)
	}
}

// TestClusterDeterminism pins the acceptance criterion: a 2-node run replays
// byte-identically, with and without a scheduled node crash.
func TestClusterDeterminism(t *testing.T) {
	for _, fault := range []bool{false, true} {
		mk := func() serve.Config {
			cfg := clusterConfig()
			if fault {
				cfg.GPUFlopsPerNs = 100
				cfg.NodeFaults = []cluster.Fault{
					{Kind: cluster.NodeCrash, Node: 1, At: 1500 * sim.Microsecond},
				}
			}
			return cfg
		}
		ref, err := serve.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		res, err := serve.Run(mk())
		if err != nil {
			t.Fatalf("fault=%v rerun: %v", fault, err)
		}
		if got, want := res.Report(), ref.Report(); got != want {
			t.Errorf("fault=%v rerun: report diverged\n--- ref ---\n%s--- got ---\n%s", fault, want, got)
		}
		if requestsDigest(t, res) != requestsDigest(t, ref) {
			t.Errorf("fault=%v rerun: per-request records diverged", fault)
		}
	}
}

// TestClusterNodeCrash kills node 1 mid-window under a saturating load: every
// tenant homed there must re-hash to node 0 and drain exactly once through
// the completion accounting (in-flight batches replayed, zero duplicates,
// zero split brain), and the crash must land in the node event log.
func TestClusterNodeCrash(t *testing.T) {
	cfg := clusterConfig()
	cfg.GPUFlopsPerNs = 100 // slow devices keep lanes saturated at the crash
	cfg.NodeFaults = []cluster.Fault{
		{Kind: cluster.NodeCrash, Node: 1, At: 1500 * sim.Microsecond},
	}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, res)
	victims, replays := 0, uint64(0)
	for _, tr := range res.Tenants {
		if tr.Home == 1 {
			victims++
			if !tr.Rehomed {
				t.Errorf("victim tenant %s not rehomed after its node crashed", tr.Name)
			}
			replays += tr.Replayed
			if tr.Completed == 0 {
				t.Errorf("victim tenant %s completed nothing on the survivor", tr.Name)
			}
		} else if tr.Rehomed {
			t.Errorf("survivor tenant %s rehomed", tr.Name)
		}
	}
	if victims == 0 {
		t.Fatal("no tenant homed on the crashed node — placement degenerate")
	}
	if replays == 0 {
		t.Errorf("no in-flight replays across a node crash under saturation:\n%s", res.Report())
	}
	if len(res.NodeEvents) == 0 {
		t.Error("node crash left no node events")
	}
}

// TestClusterNetPartition cuts node 1's link for a window mid-run: dispatches
// into the cut fail with the typed *cluster.NetPartitionedError, completions
// in flight at the cut park until the heal instant, and after the heal the
// tenant serves again — with conservation intact throughout.
func TestClusterNetPartition(t *testing.T) {
	cfg := clusterConfig()
	cfg.NodeFaults = []cluster.Fault{
		{Kind: cluster.NetPartition, Node: 1, At: 1 * sim.Millisecond, Until: 2 * sim.Millisecond},
	}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, res)
	partitioned := 0
	for _, r := range res.Requests {
		if r.Err == nil {
			continue
		}
		var npe *cluster.NetPartitionedError
		if errors.As(r.Err, &npe) {
			partitioned++
			if npe.Node != 1 {
				t.Errorf("partition error names node %d, want 1", npe.Node)
			}
		} else {
			t.Errorf("unexpected error type under net-partition: %v", r.Err)
		}
	}
	if partitioned == 0 {
		t.Errorf("no typed NetPartitionedError failures during a 1ms cut:\n%s", res.Report())
	}
	for _, tr := range res.Tenants {
		if tr.Home == 1 && tr.Completed == 0 {
			t.Errorf("tenant %s on the partitioned node never completed (heal drain broken)", tr.Name)
		}
		if tr.Rehomed {
			t.Errorf("tenant %s rehomed on a transient partition", tr.Name)
		}
	}
}

// TestClusterSlowLink multiplies node 1's link latency for the whole window
// and checks the victims' tail latency moves while node-0 tenants' rows stay
// byte-identical to the unfaulted run.
func TestClusterSlowLink(t *testing.T) {
	base, err := serve.Run(clusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig()
	cfg.NodeFaults = []cluster.Fault{
		{Kind: cluster.SlowLink, Node: 1, Mult: 8, At: 1, Until: cfg.Window},
	}
	slow, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, slow)
	for i := range base.Tenants {
		b, s := base.Tenants[i], slow.Tenants[i]
		switch b.Home {
		case 1:
			if s.P95NS <= b.P95NS {
				t.Errorf("tenant %s on the slowed link: p95 %.0f <= baseline %.0f", b.Name, s.P95NS, b.P95NS)
			}
		default:
			if s.P50NS != b.P50NS || s.Completed != b.Completed {
				t.Errorf("tenant %s off the slowed link perturbed: p50 %.0f vs %.0f", b.Name, s.P50NS, b.P50NS)
			}
		}
	}
}

// TestClusterValidation pins the typed refusals of cluster mode.
func TestClusterValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*serve.Config)
	}{
		{"no-shards", func(c *serve.Config) { c.Shards = 0 }},
		{"partitions-indivisible", func(c *serve.Config) { c.GPUPartitions = 7 }},
		{"too-many-nodes", func(c *serve.Config) { c.Nodes = 17 }},
		{"fault-bad-node", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: cluster.NodeCrash, Node: 5, At: sim.Millisecond}}
		}},
		{"fault-bad-window", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: cluster.NetPartition, Node: 1, At: sim.Millisecond, Until: sim.Microsecond}}
		}},
		{"fault-bad-mult", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: cluster.SlowLink, Node: 1, At: 1, Until: sim.Millisecond, Mult: 0.5}}
		}},
		{"fault-unknown-kind", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: "meteor-strike", Node: 0, At: 1}}
		}},
	} {
		cfg := clusterConfig()
		tc.mutate(&cfg)
		if _, err := serve.Run(cfg); err == nil {
			t.Errorf("%s: cluster config accepted, want a validation error", tc.name)
		}
	}
}

// TestNodeFaultsOnOneNodePool is the regression test for NodeFaults being
// dropped without a word when Nodes < 2: they are validated on every pool
// (node index, windows, and the flow-model plane they need) and honoured on a
// pool of one node, whose link can be cut and whose only machine can die.
func TestNodeFaultsOnOneNodePool(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*serve.Config)
		want   string
	}{
		{"executed-plane", func(c *serve.Config) {
			c.Shards = 0
			c.NodeFaults = []cluster.Fault{{Kind: cluster.NodeCrash, Node: 0, At: sim.Millisecond}}
		}, "require the flow-model plane"},
		{"node-out-of-range", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: cluster.NodeCrash, Node: 1, At: sim.Millisecond}}
		}, "targets node 1 of 1"},
		{"bad-window", func(c *serve.Config) {
			c.NodeFaults = []cluster.Fault{{Kind: cluster.NetPartition, Node: 0, At: sim.Millisecond, Until: sim.Microsecond}}
		}, "needs 0 < At < Until"},
	} {
		cfg := shardedConfig()
		tc.mutate(&cfg)
		if _, err := serve.Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	failedWith := func(res *serve.Result, match func(error) bool) (n int) {
		for _, r := range res.Requests {
			if r.Err != nil && match(r.Err) {
				n++
			}
		}
		return n
	}
	cut := shardedConfig()
	cut.NodeFaults = []cluster.Fault{{Kind: cluster.NetPartition, Node: 0, At: sim.Millisecond, Until: 2 * sim.Millisecond}}
	res, err := serve.Run(cut)
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, res)
	if n := failedWith(res, func(err error) bool {
		var npe *cluster.NetPartitionedError
		return errors.As(err, &npe) && npe.Node == 0
	}); n == 0 {
		t.Errorf("net-partition of the one node: no request failed with *cluster.NetPartitionedError\n%s", res.Report())
	}

	crash := shardedConfig()
	crash.NodeFaults = []cluster.Fault{{Kind: cluster.NodeCrash, Node: 0, At: 1500 * sim.Microsecond}}
	res, err = serve.Run(crash)
	if err != nil {
		t.Fatal(err)
	}
	clusterTotals(t, res)
	if n := failedWith(res, func(err error) bool {
		var pqe *serve.PoolQuarantinedError
		return errors.As(err, &pqe)
	}); n == 0 {
		t.Errorf("crash of the one node: no request failed with *serve.PoolQuarantinedError\n%s", res.Report())
	}
	for _, tr := range res.Tenants {
		if tr.Rehomed {
			t.Errorf("tenant %s rehomed with no surviving node", tr.Name)
		}
	}
}

// TestCheckShardLayout pins the layout check (PR 8 satellite): a cluster
// needs the flow-model plane and a partition count that divides across the
// nodes; anything else is a typed usage error. The shard count itself
// constrains nothing.
func TestCheckShardLayout(t *testing.T) {
	for _, tc := range []struct {
		shards, partitions, nodes int
		wantErr                   bool
	}{
		{0, 2, 0, false}, // classic plane: no constraint
		{1, 3, 0, false}, // still classic
		{2, 2, 0, false},
		{4, 2, 0, false},  // more shards than partitions: nothing to divide
		{3, 8, 0, false},  // 8 % 3 != 0: likewise
		{8, 8, 2, false},  // cluster, four partitions per node
		{4, 8, 3, true},   // partitions do not divide over nodes
		{3, 10, 2, false}, // five partitions per node; shards need not divide
		{2, 6, 4, true},   // partitions do not divide over nodes
		{2, 0, 2, true},   // no partitions
		{0, 8, 2, true},   // cluster requires the flow-model plane
	} {
		err := serve.CheckShardLayout(tc.shards, tc.partitions, tc.nodes)
		if (err != nil) != tc.wantErr {
			t.Errorf("CheckShardLayout(%d, %d, %d) = %v, wantErr %v",
				tc.shards, tc.partitions, tc.nodes, err, tc.wantErr)
		}
		if err != nil {
			var sle *serve.ShardLayoutError
			if !errors.As(err, &sle) {
				t.Errorf("CheckShardLayout(%d, %d, %d): error is %T, want *ShardLayoutError",
					tc.shards, tc.partitions, tc.nodes, err)
			}
		}
	}
}
