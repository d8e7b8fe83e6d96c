// Spatial-sharing example (the paper's §VI-C / Figure 11a): several tenant
// mEnclaves train LeNet concurrently on ONE GPU. With MPS-style spatial
// sharing their kernels co-run on the SM pool; with temporal (dedicated)
// sharing each kernel owns the whole device. Aggregate throughput shows why
// R2 matters for PaaS economics.
package main

import (
	"fmt"
	"log"

	"cronus/internal/experiments"
	"cronus/internal/sim"
)

const window = 15 * sim.Millisecond

func main() {
	rows, err := experiments.Figure11a(window)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LeNet training tenants sharing one GPU (window %v)\n\n", window)
	fmt.Printf("%-9s  %-16s  %-20s  %s\n", "tenants", "spatial (steps)", "temporal (steps)", "spatial gain")
	for _, r := range rows {
		fmt.Printf("%-9d  %-16d  %-20d  %+.1f%%\n", r.Tenants, r.SpatialSteps, r.TemporalSteps, r.SpatialGainPct)
	}
	fmt.Println("\n(the paper reports up to 63.4% higher throughput with spatial sharing, R2)")
}
