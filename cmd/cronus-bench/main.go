// Command cronus-bench regenerates the tables and figures of the CRONUS
// evaluation (§VI). Each experiment boots fresh simulated platforms, runs
// the paper's workloads on CRONUS and the baseline systems, and prints the
// results in the shape the paper reports.
//
// Usage:
//
//	cronus-bench                 # run everything
//	cronus-bench -exp fig7       # one experiment
//	cronus-bench -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cronus/internal/experiments"
	"cronus/internal/metrics"
	"cronus/internal/prof"
	"cronus/internal/sim"
)

type experiment struct {
	id   string
	desc string
	run  func() (fmt.Stringer, error)
}

func experimentsList() []experiment {
	return []experiment{
		{"table1", "Table I: requirement matrix", func() (fmt.Stringer, error) {
			return experiments.Table1(), nil
		}},
		{"table2", "Table II: prototype configuration", func() (fmt.Stringer, error) {
			return experiments.Table2()
		}},
		{"table3", "Table III: TCB lines of code", func() (fmt.Stringer, error) {
			return experiments.Table3()
		}},
		{"fig7", "Figure 7: Rodinia normalized computation time", func() (fmt.Stringer, error) {
			rows, err := experiments.Figure7()
			if err != nil {
				return nil, err
			}
			return experiments.RenderFigure7(rows), nil
		}},
		{"fig8", "Figure 8: DNN training time", func() (fmt.Stringer, error) {
			rows, err := experiments.Figure8(3, 16)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFigure8(rows), nil
		}},
		{"fig9", "Figure 9: failover timeline", func() (fmt.Stringer, error) {
			r, err := experiments.Figure9()
			if err != nil {
				return nil, err
			}
			return experiments.RenderFigure9(r), nil
		}},
		{"fig10a", "Figure 10a: vta-bench throughput", func() (fmt.Stringer, error) {
			rows, err := experiments.Figure10a()
			if err != nil {
				return nil, err
			}
			return experiments.RenderFigure10a(rows), nil
		}},
		{"fig10b", "Figure 10b: DNN inference latency", func() (fmt.Stringer, error) {
			rows, err := experiments.Figure10b()
			if err != nil {
				return nil, err
			}
			return experiments.RenderFigure10b(rows), nil
		}},
		{"fig11a", "Figure 11a: spatial sharing of one GPU", func() (fmt.Stringer, error) {
			rows, err := experiments.Figure11a(20 * sim.Millisecond)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFigure11a(rows), nil
		}},
		{"fig11b", "Figure 11b: multi-GPU gradient sharing", func() (fmt.Stringer, error) {
			rows, err := experiments.Figure11b(6)
			if err != nil {
				return nil, err
			}
			return experiments.RenderFigure11b(rows), nil
		}},
		{"srpc", "sRPC microbenchmark", func() (fmt.Stringer, error) {
			rows, err := experiments.SRPCMicro(200, 256)
			if err != nil {
				return nil, err
			}
			return experiments.RenderSRPCMicro(rows), nil
		}},
		{"recovery", "Recovery time comparison (§VI-D)", func() (fmt.Stringer, error) {
			rows, err := experiments.RecoveryTimes()
			if err != nil {
				return nil, err
			}
			return experiments.RenderRecovery(rows), nil
		}},
		{"sharing", "Sharing policies: MPS vs MIG vs temporal vs cold-reboot", func() (fmt.Stringer, error) {
			rows, err := experiments.SharingPolicies(12 * sim.Millisecond)
			if err != nil {
				return nil, err
			}
			return experiments.RenderSharingPolicies(rows), nil
		}},
		{"ablate-stream", "Ablation: streaming vs forced-sync sRPC", func() (fmt.Stringer, error) {
			rows, err := experiments.AblationStreaming()
			if err != nil {
				return nil, err
			}
			return experiments.RenderAblationStreaming(rows), nil
		}},
		{"ablate-ring", "Ablation: sRPC ring size", func() (fmt.Stringer, error) {
			rows, err := experiments.AblationRingSize()
			if err != nil {
				return nil, err
			}
			return experiments.RenderAblationRingSize(rows), nil
		}},
		{"ablate-switch", "Ablation: context-switch cost sensitivity", func() (fmt.Stringer, error) {
			rows, err := experiments.AblationSwitchCost()
			if err != nil {
				return nil, err
			}
			return experiments.RenderAblationSwitchCost(rows), nil
		}},
		{"serve", "Serving plane: batch-cap sweep at fixed offered load", func() (fmt.Stringer, error) {
			rows, err := experiments.ServeBatchSweep(nil)
			if err != nil {
				return nil, err
			}
			return experiments.RenderServeBatchSweep(rows), nil
		}},
		{"attest", "Attestation: ticket resumption vs cold quote verification", func() (fmt.Stringer, error) {
			rows, err := experiments.AttestAmortization(nil)
			if err != nil {
				return nil, err
			}
			return experiments.RenderAttestAmortization(rows), nil
		}},
		{"chaos", "Chaos soak: fault kinds vs recovery machinery", func() (fmt.Stringer, error) {
			rows, err := experiments.ChaosSweep(5)
			if err != nil {
				return nil, err
			}
			return experiments.RenderChaosSweep(rows), nil
		}},
		{"watchdog", "Watchdog hang detection: bound vs measured latency", func() (fmt.Stringer, error) {
			rows, err := experiments.HangDetectionSweep()
			if err != nil {
				return nil, err
			}
			return experiments.RenderHangDetectionSweep(rows), nil
		}},
	}
}

func main() {
	expFlag := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	showMetrics := flag.Bool("metrics", false, "print a metrics appendix after each experiment")
	profile := prof.Flags()
	flag.Parse()

	exps := experimentsList()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-9s %s\n", e.id, e.desc)
		}
		return
	}
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		ids = append(ids, e.id)
	}
	sort.Strings(ids)

	if err := profile.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "cronus-bench:", err)
		os.Exit(1)
	}
	defer profile.Stop()
	ran := 0
	for _, e := range exps {
		if *expFlag != "" && e.id != *expFlag {
			continue
		}
		fmt.Printf("[%s] %s\n", e.id, e.desc)
		if *showMetrics {
			metrics.Default.Reset()
			metrics.Default.Enable()
		}
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cronus-bench: %s failed: %v\n", e.id, err)
			profile.Exit(1)
		}
		fmt.Println(out.String())
		if *showMetrics {
			fmt.Printf("metrics appendix [%s]\n%s\n", e.id, metrics.Default.Snapshot())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "cronus-bench: unknown experiment %q (have: %s)\n", *expFlag, strings.Join(ids, ", "))
		profile.Exit(2)
	}
}
