// Command cronus-serve runs the multi-tenant serving plane (internal/serve)
// against a simulated CRONUS platform: seeded multi-tenant load, admission
// control, dynamic batching, pluggable placement, and optional mid-run
// partition failure with proceed-trap failover.
//
// The run is deterministic: a fixed -seed produces byte-identical output
// across invocations. Exit status is non-zero if the run loses or
// duplicates any request.
//
// Usage:
//
//	cronus-serve                                  # two-tenant demo load
//	cronus-serve -seed 7 -policy round-robin
//	cronus-serve -fail-at-ms 11                   # inject a gpu-part0 failure
//	cronus-serve -fail-at-ms 11 -supervise        # with health supervision on
//	cronus-serve -max-batch 1                     # disable batching
//	cronus-serve -trace out.json                  # Perfetto JSON + attribution table + p99 outliers
//	cronus-serve -slo-target-us 400               # arm the SLO burn-rate engine
//	cronus-serve -shards 2                        # flow-model data plane
//	cronus-serve -partitions 8 -shards 4          # ... over eight partitions
//	cronus-serve -nodes 2 -partitions 8 -shards 8            # two-node fabric cluster
//	cronus-serve -nodes 2 -partitions 8 -shards 8 -node-crash-ms 11  # ... with a node crash
//	cronus-serve -attest-tickets                  # attestation admission gate
//	cronus-serve -attest-tickets -attest-reprobe-us 500      # ... + re-measurement prober
//	cronus-serve -shards 4 -partitions 4 -migrate-at-ms 10 -migrate-from 0/1 -migrate-to 0/0
//	cronus-serve -shards 4 -partitions 4 -migrate-at-ms 10 -migrate-interrupt  # die mid-checkpoint
//	cronus-serve -shards 4 -partitions 4 -autoscale          # load-driven elastic capacity
//
// -shards 0 (the default) and -shards 1 run the classic executed plane
// byte-identically. Any -shards >= 2 selects the flow-model plane (the value
// is otherwise unobservable), which models inference serving only: the
// general-compute rodinia class is left out of the tenant mix, and
// -trace/-supervise are rejected by config validation. -nodes sizes the pool
// (one node by default); with -nodes >= 2 the nodes are joined by a simulated
// fabric: it needs the flow-model plane and a partition count that divides
// evenly across the nodes (anything else is a usage error, exit status 2) and
// tenants are homed by consistent hashing.
//
// The elastic-capacity flags also require the flow-model plane. -migrate-at-ms
// schedules one planned live migration (quiesce, checkpoint, transfer, replay,
// release) from -migrate-from to -migrate-to, each a node/partition pair;
// -migrate-interrupt kills the source mid-checkpoint so the plane must degrade
// to crash-failover, and -migrate-race force-dispatches one batch onto the
// quiescing source. -autoscale arms the load-driven autoscaler (queue-depth /
// shed-rate watermarks with cooldown hysteresis); the report gains the elastic
// action counters and event log either way.
package main

import (
	"flag"
	"fmt"
	"os"

	"cronus/internal/cluster"
	"cronus/internal/elastic"
	"cronus/internal/otrace"
	"cronus/internal/prof"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/slo"
	"cronus/internal/trace"
	"cronus/internal/tvm"
	"cronus/internal/workload/rodinia"
)

func main() {
	seed := flag.Int64("seed", 1, "deterministic run seed")
	windowMS := flag.Int("window-ms", 30, "load-generation window, virtual ms")
	policy := flag.String("policy", string(serve.LeastOutstanding),
		"placement policy: round-robin | least-outstanding | device-affinity")
	maxBatch := flag.Int("max-batch", 4, "dynamic batch size cap (1 disables batching)")
	batchWinUS := flag.Int("batch-window-us", 50, "dynamic batch window, virtual µs")
	partitions := flag.Int("partitions", 2, "GPU partitions in the serving pool")
	tenants := flag.Int("tenants", 2, "number of tenants")
	rate := flag.Float64("rate", 3000, "per-tenant offered load, requests per virtual second")
	failAtMS := flag.Int("fail-at-ms", 0, "inject a FailPanic on gpu-part0 at this virtual ms (0 = none)")
	supervise := flag.Bool("supervise", false,
		"enable health supervision: mOS heartbeats + SPM watchdog, restart backoff, crash-loop quarantine "+
			"(the hang-report breaker also needs the request watchdog, which only the chaos harness arms)")
	showReqs := flag.Bool("requests", false, "dump the per-request timeline")
	traceOut := flag.String("trace", "",
		"enable causal tracing and write Chrome trace-event (Perfetto) JSON to this file")
	sloTargetUS := flag.Int("slo-target-us", 0,
		"arm per-tenant SLOs: latency target in virtual µs (0 = off)")
	sloBudget := flag.Float64("slo-budget", 0.01, "SLO error budget (fraction of requests)")
	sloAdmit := flag.Bool("slo-admission", false,
		"halve a tenant's admission cap while its SLO burn rate is firing (requires -slo-target-us)")
	shards := flag.Int("shards", 0,
		">= 2 selects the flow-model data plane (0 or 1 = classic executed plane)")
	nodes := flag.Int("nodes", 0,
		"nodes in the pool (0 = 1; >= 2 requires -shards >= 2 and -partitions divisible by it)")
	nodeCrashMS := flag.Int("node-crash-ms", 0,
		"crash node 1 at this virtual ms (0 = none; requires -nodes >= 2)")
	attTickets := flag.Bool("attest-tickets", false,
		"gate every dispatch on attestation, with session-ticket resumption and cached quote verification")
	attTTLUS := flag.Int("attest-ticket-ttl-us", 0,
		"session-ticket lifetime, virtual µs (0 = default 5000; requires -attest-tickets)")
	attReprobeUS := flag.Int("attest-reprobe-us", 0,
		"continuous re-measurement probe interval, virtual µs (0 = prober off; requires -attest-tickets)")
	migrateAtMS := flag.Int("migrate-at-ms", 0,
		"start a planned live migration at this virtual ms (0 = none; requires -shards >= 2)")
	migrateFrom := flag.String("migrate-from", "0/1",
		"migration source endpoint as node/partition (requires -migrate-at-ms)")
	migrateTo := flag.String("migrate-to", "0/0",
		"migration destination endpoint as node/partition (requires -migrate-at-ms)")
	migrateInterrupt := flag.Bool("migrate-interrupt", false,
		"kill the migration source mid-checkpoint: the plane must degrade to crash-failover (requires -migrate-at-ms)")
	migrateRace := flag.Bool("migrate-race", false,
		"force-dispatch one batch onto the quiescing source (requires -migrate-at-ms)")
	autoscale := flag.Bool("autoscale", false,
		"arm the load-driven autoscaler: watermark-driven scale-up/down with boot, attest and scrub costs (requires -shards >= 2)")
	autoscaleIntervalUS := flag.Int("autoscale-interval-us", 0,
		"autoscaler control tick, virtual µs (0 = default 250; requires -autoscale)")
	profile := prof.Flags()
	flag.Parse()

	if *migrateAtMS <= 0 && (*migrateInterrupt || *migrateRace) {
		fmt.Fprintln(os.Stderr, "cronus-serve: -migrate-interrupt/-migrate-race require -migrate-at-ms")
		os.Exit(2)
	}
	if !*autoscale && *autoscaleIntervalUS > 0 {
		fmt.Fprintln(os.Stderr, "cronus-serve: -autoscale-interval-us requires -autoscale")
		os.Exit(2)
	}

	if *sloAdmit && *sloTargetUS <= 0 {
		fmt.Fprintln(os.Stderr, "cronus-serve: -slo-admission requires -slo-target-us")
		os.Exit(2)
	}
	if !*attTickets && (*attTTLUS > 0 || *attReprobeUS > 0) {
		fmt.Fprintln(os.Stderr, "cronus-serve: -attest-ticket-ttl-us/-attest-reprobe-us require -attest-tickets")
		os.Exit(2)
	}
	if *nodeCrashMS > 0 && *nodes < 2 {
		// The flag crashes node 1; a pool of one node has none.
		fmt.Fprintln(os.Stderr, "cronus-serve: -node-crash-ms requires -nodes >= 2")
		os.Exit(2)
	}

	if err := serve.CheckShardLayout(*shards, *partitions, *nodes); err != nil {
		fmt.Fprintln(os.Stderr, "cronus-serve:", err)
		os.Exit(2)
	}

	cfg := serve.Config{
		Seed:          *seed,
		Window:        sim.Duration(*windowMS) * sim.Millisecond,
		Policy:        serve.Policy(*policy),
		MaxBatch:      *maxBatch,
		BatchWindow:   sim.Duration(*batchWinUS) * sim.Microsecond,
		GPUPartitions: *partitions,
		KeepRequests:  true,
		Shards:        *shards,
		Nodes:         *nodes,
		Supervise:     *supervise,
	}
	if *nodeCrashMS > 0 {
		cfg.NodeFaults = append(cfg.NodeFaults, cluster.Fault{
			Kind: cluster.NodeCrash,
			Node: 1,
			At:   sim.Duration(*nodeCrashMS) * sim.Millisecond,
		})
	}
	if *failAtMS > 0 {
		cfg.FailAt = sim.Duration(*failAtMS) * sim.Millisecond
	}
	if *attTickets {
		cfg.AttestTickets = true
		if *attTTLUS > 0 {
			cfg.AttestTicketTTL = sim.Duration(*attTTLUS) * sim.Microsecond
		}
		if *attReprobeUS > 0 {
			cfg.AttestReprobe = sim.Duration(*attReprobeUS) * sim.Microsecond
		}
	}
	if *migrateAtMS > 0 {
		cfg.Migrations = append(cfg.Migrations, serve.Migration{
			At:        sim.Duration(*migrateAtMS) * sim.Millisecond,
			From:      parseEndpoint("-migrate-from", *migrateFrom),
			To:        parseEndpoint("-migrate-to", *migrateTo),
			Interrupt: *migrateInterrupt,
			Race:      *migrateRace,
		})
	}
	if *autoscale {
		ac := elastic.Config{}
		if *autoscaleIntervalUS > 0 {
			ac.Interval = sim.Duration(*autoscaleIntervalUS) * sim.Microsecond
		}
		cfg.Autoscale = &ac
	}
	if *traceOut != "" {
		cfg.Trace = true
	}
	if *sloTargetUS > 0 {
		cfg.SLO = &slo.Objective{
			LatencyTarget: sim.Duration(*sloTargetUS) * sim.Microsecond,
			ErrorBudget:   *sloBudget,
		}
		cfg.SLOAdmission = *sloAdmit
	}
	nn := rodinia.NN()
	for i := 0; i < *tenants; i++ {
		spec := serve.TenantSpec{
			Name:    fmt.Sprintf("tenant-%d", i),
			Arrival: serve.Poisson,
			Rate:    *rate,
			Mix: []serve.WorkClass{
				{Name: "resnet18", Weight: 6, Graph: tvm.ResNet18()},
				{Name: "resnet50", Weight: 3, Graph: tvm.ResNet50()},
			},
		}
		// The first tenant mixes in general compute (unbatchable rodinia
		// passes) so the run exercises both execution paths. The flow-model
		// plane models inference serving only, so it keeps the pure-graph
		// mix.
		if i == 0 && *shards < 2 {
			spec.Mix = append(spec.Mix, serve.WorkClass{Name: "nn", Weight: 1, Bench: &nn})
		}
		cfg.Tenants = append(cfg.Tenants, spec)
	}

	// The arguments are usable: profile from here, on every way out.
	if err := profile.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "cronus-serve:", err)
		os.Exit(1)
	}
	defer profile.Stop()
	res, err := serve.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cronus-serve:", err)
		profile.Exit(1)
	}
	fmt.Print(res.Report())
	// Jain's index over the tenants' completed counts, and the shortest
	// tenant's count over the mean: 1 is an equal share.
	fmt.Printf("fairness: jain=%.4f worst=%.4f over %d tenants' completed requests\n",
		res.Fairness(), res.WorstShare(), len(res.Tenants))
	if *attTickets {
		// The admission-gate counters: how much of the dispatch volume rode
		// a session-ticket resume (one MAC) versus a cold quote verification.
		c := res.Metrics.Counters
		fmt.Printf("attestation: cold=%d resumed=%d ticket-hits=%d verify-hits=%d coalesced=%d probes=%d revocations=%d\n",
			c["serve.attest.cold"], c["serve.attest.resumed"],
			c["attest.tickets.hits"], c["attest.verify.hits"], c["attest.verify.coalesced"],
			c["serve.attest.probes"], c["serve.attest.revocations"])
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cronus-serve:", err)
			profile.Exit(1)
		}
		if err := res.Spans.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cronus-serve:", err)
			profile.Exit(1)
		}
		fmt.Printf("trace: %d spans -> %s\n", res.Spans.Len(), *traceOut)
		if dropped := res.Spans.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "cronus-serve: warning: %d trace events dropped at the %d-event cap\n", dropped, trace.MaxEvents)
		}
		// Where the latency went, per tenant and stage, and the p99 tail
		// tied back to concrete trace ids.
		attr := otrace.Attribute(res.Traces)
		fmt.Print(attr.Table())
		fmt.Print(otrace.OutlierReport(attr.Outliers(0.99, 3)))
	}

	if *showReqs {
		for _, r := range res.Requests {
			fmt.Printf("req %4d %-10s %-9s arrived=%-12d latency=%-12s replays=%d\n",
				r.ID, r.Tenant, r.Class(), int64(r.Arrived), r.Latency(), r.Replays)
		}
	}

	// Conservation audit: every admitted request completed exactly once.
	violations := res.Conservation()
	for _, v := range violations {
		fmt.Println("ACCOUNTING VIOLATION:", v)
	}
	if len(violations) > 0 {
		profile.Exit(1)
	}
	fmt.Println("accounting: zero lost, zero duplicated")
}

// parseEndpoint parses a node/partition pair from a migration endpoint flag.
func parseEndpoint(flagName, s string) elastic.Endpoint {
	var e elastic.Endpoint
	if _, err := fmt.Sscanf(s, "%d/%d", &e.Node, &e.Part); err != nil {
		fmt.Fprintf(os.Stderr, "cronus-serve: %s: want node/partition (e.g. 0/1), got %q\n",
			flagName, s)
		os.Exit(2)
	}
	return e
}
