package main

import (
	"fmt"
	"math"
)

// runSelfcheck runs the selected workloads twice over, both runs each, and
// holds the benchmark to its own contract: every virtual-clock metric must
// be identical between the two sets, and every bounded host-clock metric's
// two medians must agree within its bound. It prints the quartiles of the
// raw (unscaled) per-slice samples behind each host median, which is the
// within-run half of where the bounds in BENCHMARK.json come from; the
// README's steadiness table is the run-to-run half.
func runSelfcheck(selected []workload, seed int64, seconds float64, minRepeats int) (bool, error) {
	ok := true
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			var sets [2]*result
			for i := range sets {
				res, err := runWorkload(w, seed, seconds, minRepeats, traced)
				if err != nil {
					return false, err
				}
				if !res.correct() {
					printTable(res)
					ok = false
				}
				sets[i] = res
			}
			kind := "untraced"
			if traced {
				kind = "traced"
			}
			fmt.Printf("== selfcheck %s (%s), seed %d ==\n", w.name, kind, seed)
			for _, s := range specsFor(traced) {
				a, b := sets[0].Metrics[s.Name], sets[1].Metrics[s.Name]
				verdict := "ok  "
				switch {
				case s.Clock == clockVirtual:
					if math.Float64bits(a) != math.Float64bits(b) {
						verdict, ok = "FAIL", false
					}
					fmt.Printf("%s %-34s virtual  %v == %v\n", verdict, s.Name, a, b)
				case s.Bound > 0:
					diff := relDiff(a, b)
					if diff > s.Bound {
						verdict, ok = "FAIL", false
					}
					samples := append(append([]float64(nil), sets[0].Samples[s.Name]...), sets[1].Samples[s.Name]...)
					q1, q2, q3 := quartiles(samples)
					fmt.Printf("%s %-34s host     medians %.6g / %.6g differ %.2f%% (bound %.0f%%); %d raw samples q1 %.6g q2 %.6g q3 %.6g spread %.2f%%\n",
						verdict, s.Name, a, b, 100*diff, 100*s.Bound, len(samples), q1, q2, q3, 100*spread(samples))
				default:
					fmt.Printf("%s %-34s host     %.6g / %.6g differ %.2f%% (no bound)\n", verdict, s.Name, a, b, 100*relDiff(a, b))
				}
			}
		}
	}
	if ok {
		fmt.Println("selfcheck: passed")
	} else {
		fmt.Println("selfcheck: FAILED")
	}
	return ok, nil
}

// relDiff is |a-b| as a share of a (0 when both are 0).
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(a)
}
