// Command cronus-chaos runs seeded fault-injection soak campaigns against
// the serving plane (internal/chaos). There is one run protocol: each seed
// compiles a deterministic fault schedule, executes a fault-free baseline and
// a faulted run over the identical config, and checks the invariants —
// request conservation with zero duplicates, exactly-once completion, typed
// failures only, and survivor tenants indistinguishable from baseline.
//
// -nodes is the topology, and every fault kind belongs to exactly one. Below
// 2 the seed runs on one booted platform (crash, ring-corrupt, device-hang,
// attest-fail, persistent-hang, crash-loop) and the invariants add
// crashed-partition memory never readable again, every injected hang detected
// by the SPM watchdog within its bound, and crash-loops quarantined by the
// sliding-window policy. With -nodes >= 2 it runs on the multi-node fabric
// (node-crash, net-partition, slow-link by default; attest-storm,
// stale-measurement, migrate-interrupt, scale-storm, drain-race on request)
// and the invariants add no-split-brain, victims rehomed, revoked partitions
// quarantined with zero completions after revocation, and interrupted or
// raced migrations resolving exactly once. Naming a kind of the other
// topology, -trace with -nodes >= 2, or -partitions that do not divide over
// -nodes is a usage error (exit 2), never a silent no-op.
//
// The whole campaign is deterministic: the same -seed/-seeds produce
// byte-identical output. -verify re-runs every seed and byte-compares the
// two reports, proving the replay contract. Exit status is 1 on any
// invariant violation or replay divergence.
//
// Usage:
//
//	cronus-chaos                         # 25-seed soak, all single-platform kinds
//	cronus-chaos -seeds 3 -v             # short soak with full per-seed reports
//	cronus-chaos -seed 7 -seeds 1 -v     # replay one schedule
//	cronus-chaos -kinds persistent-hang,crash-loop
//	cronus-chaos -verify                 # double-run every seed, byte-compare
//	cronus-chaos -trace -seeds 3 -v      # causal spans + flight-recorder dumps
//	cronus-chaos -nodes 2 -partitions 4 -tenants 4    # node-level cluster soak
//	cronus-chaos -nodes 2 -partitions 4 -tenants 4 -kinds attest-storm,stale-measurement
//	cronus-chaos -nodes 2 -partitions 4 -tenants 4 -kinds migrate-interrupt,scale-storm,drain-race -verify
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"cronus/internal/chaos"
	"cronus/internal/serve"
	"cronus/internal/sim"
)

// fail reports err and exits: 2 for a usage error (a kind or option of the
// wrong topology, an indivisible layout), 1 for a run that could not execute.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "cronus-chaos:", err)
	var te *chaos.TopologyError
	var le *serve.ShardLayoutError
	if errors.As(err, &te) || errors.As(err, &le) {
		os.Exit(2)
	}
	os.Exit(1)
}

func main() {
	baseSeed := flag.Int64("seed", 1, "first seed of the campaign")
	seeds := flag.Int("seeds", 25, "number of consecutive seeds to soak")
	tenants := flag.Int("tenants", 2, "serving tenants")
	partitions := flag.Int("partitions", 2, "GPU partitions in the pool")
	windowMS := flag.Int("window-ms", 10, "load window per run, virtual ms")
	faults := flag.Int("faults", 3, "faults compiled per schedule")
	kinds := flag.String("kinds", "", "comma-separated fault kinds of the topology -nodes selects (default: its default mix): "+
		chaos.TopologyKinds(false)+"; with -nodes >= 2: "+chaos.TopologyKinds(true))
	nodes := flag.Int("nodes", 0, "fabric nodes: the topology (< 2 = one platform; >= 2 soaks the cluster plane with its fault kinds)")
	verify := flag.Bool("verify", false, "re-run every seed and byte-compare the reports (replay contract)")
	verbose := flag.Bool("v", false, "print the full report of every seed, not just failures")
	traceOn := flag.Bool("trace", false,
		"record causal spans during faulted runs and include flight-recorder dumps in the reports (single platform only)")
	flag.Parse()

	opts := chaos.Options{
		Tenants:    *tenants,
		Partitions: *partitions,
		Window:     sim.Duration(*windowMS) * sim.Millisecond,
		Faults:     *faults,
		Nodes:      *nodes,
		Trace:      *traceOn,
	}
	parsed, err := chaos.ParseKinds(*kinds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cronus-chaos:", err)
		os.Exit(2)
	}
	opts.Kinds = parsed

	cr, err := chaos.RunCampaign(*baseSeed, *seeds, opts)
	if err != nil {
		fail(err)
	}
	fmt.Print(cr.Report())
	if *verbose {
		for _, rr := range cr.Runs {
			if rr.Passed() { // failing seeds are already in the campaign report
				fmt.Printf("--- seed %d ---\n%s", rr.Seed, rr.Report())
			}
		}
	}

	ok := cr.Passed()
	if !ok {
		fmt.Println("soak: FAIL")
	} else {
		fmt.Println("soak: every invariant upheld")
	}

	if *verify {
		diverged := 0
		for _, rr := range cr.Runs {
			again, err := chaos.Run(rr.Seed, opts)
			if err != nil {
				fail(fmt.Errorf("verify: %w", err))
			}
			if again.Report() != rr.Report() {
				diverged++
				fmt.Printf("REPLAY DIVERGENCE: seed %d produced two different reports\n", rr.Seed)
			}
		}
		if diverged == 0 {
			fmt.Printf("verify: %d seeds replayed byte-identically\n", len(cr.Runs))
		} else {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}
