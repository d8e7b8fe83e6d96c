package serve_test

import (
	"flag"
	"fmt"
	"testing"

	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// shardsFlag reruns the ServeLoad benchmarks on the flow-model data plane:
//
//	go test ./internal/serve -bench ServeLoad -shards 4
//
// 0 (the default) keeps the classic executed plane. The value is reported as
// the "shards" metric so BENCH_serve.json rows from both planes stay
// distinguishable.
var shardsFlag = flag.Int("shards", 0, "run ServeLoad benchmarks with Config.Shards set to this (0 = classic plane, >= 2 = flow-model plane)")

// benchConfig is the saturation load used for BENCH_serve.json: one tenant
// offering more than an unbatched replica can serve, swept over batch caps.
// The batch window must cover MaxBatch arrivals at the offered rate: at 90k
// fixed-rate the gap is 11.11µs, so 40µs fills a batch of 4 but caps at 4
// for larger batches — caps above 4 widen the window to 80µs so the eighth
// arrival (77.8µs after the first) still joins.
func benchConfig(maxBatch int) serve.Config {
	window := 40 * sim.Microsecond
	if maxBatch > 4 {
		window = 80 * sim.Microsecond
	}
	return serve.Config{
		Seed:          17,
		Window:        20 * sim.Millisecond,
		Policy:        serve.RoundRobin,
		MaxBatch:      maxBatch,
		BatchWindow:   window,
		GPUPartitions: 1,
		GPUFlopsPerNs: 400,
		Shards:        *shardsFlag,
		Tenants: []serve.TenantSpec{
			{
				Name: "load", Arrival: serve.FixedRate, Rate: 90000, QueueCap: 64,
				Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}},
			},
		},
	}
}

// benchServe runs the serving plane and reports virtual-time throughput and
// latency as custom metrics; ns/op is host time and machine-dependent, the
// vreq/s, vp50_ns, vbatch and shards metrics are deterministic.
func benchServe(b *testing.B, maxBatch int) {
	b.Helper()
	var last *serve.Result
	for i := 0; i < b.N; i++ {
		res, err := serve.Run(benchConfig(maxBatch))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	tr := last.Tenants[0]
	b.ReportMetric(tr.GoodputRPS, "vreq/s")
	b.ReportMetric(tr.P50NS, "vp50_ns")
	b.ReportMetric(last.AvgBatch(), "vbatch")
	b.ReportMetric(float64(*shardsFlag), "shards")
}

func BenchmarkServeLoadBatch1(b *testing.B) { benchServe(b, 1) }
func BenchmarkServeLoadBatch4(b *testing.B) { benchServe(b, 4) }
func BenchmarkServeLoadBatch8(b *testing.B) { benchServe(b, 8) }

// BenchmarkServeLoadScaleOut is the flow-model plane's aggregate-throughput
// row: four tenants, each offering the single-tenant saturation load on its
// own partition (DeviceAffinity). The
// vreq/s metric is the aggregate goodput across tenants — the number that
// moves past the single-partition 90k plateau.
func BenchmarkServeLoadScaleOut(b *testing.B) {
	shards := 4
	if *shardsFlag > 0 {
		shards = *shardsFlag
	}
	cfg := benchConfig(4)
	cfg.Shards = shards
	cfg.GPUPartitions = 4
	cfg.Policy = serve.DeviceAffinity
	cfg.Tenants = nil
	for ti := 0; ti < 4; ti++ {
		cfg.Tenants = append(cfg.Tenants, serve.TenantSpec{
			Name: fmt.Sprintf("load%d", ti), Arrival: serve.FixedRate, Rate: 90000, QueueCap: 64,
			Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}},
		})
	}
	var last *serve.Result
	for i := 0; i < b.N; i++ {
		res, err := serve.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	var agg float64
	var p50 float64
	for _, tr := range last.Tenants {
		agg += tr.GoodputRPS
		if tr.P50NS > p50 {
			p50 = tr.P50NS
		}
	}
	b.ReportMetric(agg, "vreq/s")
	b.ReportMetric(p50, "vp50_ns")
	b.ReportMetric(last.AvgBatch(), "vbatch")
	b.ReportMetric(float64(shards), "shards")
}

// BenchmarkServeLoadMultiNode is the fabric cluster's aggregate-throughput
// row: eight tenants, each offering the single-tenant saturation load, over
// eight partitions split across two nodes. Tenants
// hash onto home nodes (HashBound 1.0 forces an even four-per-node split)
// and DeviceAffinity pins each to its own partition inside the home group,
// so the vreq/s aggregate is the two-node scale-out of the four-partition
// ScaleOut row — inter-node transfer costs included.
func BenchmarkServeLoadMultiNode(b *testing.B) {
	benchMultiNode(b, 2)
}

// BenchmarkServeLoadMultiNode4 pushes the scale-out row to four nodes: sixteen
// tenants over sixteen partitions, four per node — the -nodes 4 -partitions 16
// -shards 16 configuration. Together with the two-node row it shows how the
// aggregate scales as the fabric doubles.
func BenchmarkServeLoadMultiNode4(b *testing.B) {
	benchMultiNode(b, 4)
}

// benchMultiNode runs the fabric scale-out row over `nodes` nodes with four
// partitions and four pinned tenants per node. Shards stays 4·nodes: it is
// the row key in BENCH_serve.json.
func benchMultiNode(b *testing.B, nodes int) {
	cfg := benchConfig(4)
	cfg.Nodes = nodes
	cfg.Shards = 4 * nodes
	cfg.GPUPartitions = 4 * nodes
	cfg.Policy = serve.DeviceAffinity
	cfg.HashBound = 1.0
	cfg.Tenants = nil
	for ti := 0; ti < 4*nodes; ti++ {
		cfg.Tenants = append(cfg.Tenants, serve.TenantSpec{
			Name: fmt.Sprintf("load%d", ti), Arrival: serve.FixedRate, Rate: 90000, QueueCap: 64,
			Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}},
		})
	}
	var last *serve.Result
	for i := 0; i < b.N; i++ {
		res, err := serve.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	var agg float64
	var p50 float64
	for _, tr := range last.Tenants {
		agg += tr.GoodputRPS
		if tr.P50NS > p50 {
			p50 = tr.P50NS
		}
	}
	b.ReportMetric(agg, "vreq/s")
	b.ReportMetric(p50, "vp50_ns")
	b.ReportMetric(last.AvgBatch(), "vbatch")
	b.ReportMetric(float64(cfg.Shards), "shards")
	b.ReportMetric(float64(cfg.Nodes), "nodes")
}
