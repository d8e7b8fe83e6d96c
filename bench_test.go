// Package cronus_test hosts the benchmark harness that regenerates every
// table and figure of the CRONUS evaluation (§VI): one sub-benchmark per
// experiments.Catalog entry, each running the experiment end to end — booting
// fresh simulated platforms, executing the workloads on CRONUS and the
// baselines — at the paper's parameters, so
//
//	go test -bench=. -benchmem
//
// measures what regenerating the paper's results costs the host. The
// reproduced quantities themselves are the paper.* metrics of bench/ and the
// goldens under internal/experiments/testdata. DESIGN.md §4 maps experiment
// ids to modules; EXPERIMENTS.md records paper-vs-measured values.
package cronus_test

import (
	"testing"

	"cronus/internal/experiments"
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Catalog {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
