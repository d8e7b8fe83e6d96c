// Command cronus-bench regenerates the tables and figures of the CRONUS
// evaluation (§VI). Each experiment boots fresh simulated platforms, runs
// the paper's workloads on CRONUS and the baseline systems, and prints the
// results in the shape the paper reports. The experiments, their ids and
// their parameters are experiments.Catalog.
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
)

func main() {
	expFlag := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	showMetrics := flag.Bool("metrics", false, "print a metrics appendix after each experiment")
	profile := prof.Flags()
	flag.Parse()

	if *list {
		for _, e := range experiments.Catalog {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}
	if err := profile.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "cronus-bench:", err)
		os.Exit(1)
	}
	defer profile.Stop()
	ran := 0
	for _, e := range experiments.Catalog {
		if *expFlag != "" && e.ID != *expFlag {
			continue
		}
		fmt.Printf("[%s] %s\n", e.ID, e.Title)
		if *showMetrics {
			metrics.Default.Reset()
			metrics.Default.Enable()
		}
		out, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cronus-bench: %s failed: %v\n", e.ID, err)
			profile.Exit(1)
		}
		fmt.Println(out.String())
		if *showMetrics {
			fmt.Printf("metrics appendix [%s]\n%s\n", e.ID, metrics.Default.Snapshot())
		}
		ran++
	}
	if ran == 0 {
		ids := make([]string, len(experiments.Catalog))
		for i, e := range experiments.Catalog {
			ids[i] = e.ID
		}
		sort.Strings(ids)
		fmt.Fprintf(os.Stderr, "cronus-bench: unknown experiment %q (have: %s)\n", *expFlag, strings.Join(ids, ", "))
		profile.Exit(2)
	}
}
