// Command cronus-run executes one workload on one system and reports the
// virtual-time result — the artifact-evaluation style entry point:
//
//	cronus-run -list
//	cronus-run -workload gaussian -system cronus
//	cronus-run -workload gaussian -system all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cronus/internal/baseline"
	"cronus/internal/experiments"
	"cronus/internal/metrics"
	"cronus/internal/sim"
	"cronus/internal/trace"
	"cronus/internal/workload/rodinia"
)

func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.Default.WriteChromeTrace(f)
}

func writeMetrics(path string, snap *metrics.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return snap.WriteJSON(f)
}

func main() {
	workload := flag.String("workload", "", "rodinia workload name")
	system := flag.String("system", "all", "linux | trustzone | hix-trustzone | cronus | all")
	traceOut := flag.String("trace", "", "write a Chrome trace JSON of the run to this file")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot JSON of the run to this file")
	list := flag.Bool("list", false, "list workloads and systems")
	flag.Parse()

	// Both observability sinks are written after every run completes; the
	// combined summary line reports what was captured and where it went.
	if *traceOut != "" || *metricsOut != "" {
		if *traceOut != "" {
			trace.Default.Enable()
		}
		if *metricsOut != "" {
			metrics.Default.Reset()
			metrics.Default.Enable()
		}
		defer func() {
			var parts []string
			failed := false
			if *traceOut != "" {
				if err := writeTrace(*traceOut); err != nil {
					fmt.Fprintln(os.Stderr, "cronus-run:", err)
					failed = true
				} else {
					parts = append(parts, fmt.Sprintf("%s -> %s (open in chrome://tracing or Perfetto)", trace.Default.Summary(), *traceOut))
				}
			}
			if *metricsOut != "" {
				snap := metrics.Default.Snapshot()
				if err := writeMetrics(*metricsOut, snap); err != nil {
					fmt.Fprintln(os.Stderr, "cronus-run:", err)
					failed = true
				} else {
					parts = append(parts, fmt.Sprintf("%s -> %s", snap.Summary(), *metricsOut))
				}
			}
			// The collector silently caps its buffer; surface the loss so a
			// truncated export is never mistaken for a complete one. The same
			// count is exported as the trace.events.dropped counter.
			if dropped := trace.Default.Dropped(); dropped > 0 {
				fmt.Fprintf(os.Stderr, "cronus-run: warning: %d trace events dropped at the %d-event cap\n", dropped, trace.DefaultMaxEvents)
			}
			for _, line := range parts {
				fmt.Println(line)
			}
			if failed {
				os.Exit(1)
			}
		}()
	}

	if *list {
		var names []string
		for _, b := range rodinia.AllExtended() {
			names = append(names, b.Name)
		}
		fmt.Println("workloads:", strings.Join(names, ", "))
		fmt.Println("systems:  linux, trustzone, hix-trustzone, cronus, all")
		return
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "cronus-run: -workload required (see -list)")
		os.Exit(2)
	}
	b, err := rodinia.ByName(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cronus-run: %v\n", err)
		os.Exit(2)
	}
	systems := experiments.GPUSystems
	if *system != "all" {
		systems = []baseline.System{baseline.System(*system)}
	}
	var native sim.Duration
	for _, s := range systems {
		d, err := experiments.RunOnSystem(s, b.Cubin(), nil, b.Run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cronus-run: %s on %s: %v\n", b.Name, s, err)
			os.Exit(1)
		}
		norm := ""
		if s == baseline.Native {
			native = d
		} else if native > 0 {
			norm = fmt.Sprintf("  (%.3fx native)", float64(d)/float64(native))
		}
		fmt.Printf("%-14s %-14s %12v%s\n", b.Name, s, d, norm)
	}
}
