package experiments

import (
	"fmt"

	"cronus/internal/baseline"
	"cronus/internal/sim"
	"cronus/internal/workload/rodinia"
)

// Fig7Row is one Rodinia benchmark across the four systems.
type Fig7Row struct {
	Benchmark  string
	Times      map[baseline.System]sim.Duration
	Normalized map[baseline.System]float64 // vs native gdev
}

// Figure7 reproduces the Rodinia microbenchmark comparison: computation
// time of each benchmark on native gdev, monolithic TrustZone,
// HIX-TrustZone and CRONUS, normalized to native.
func Figure7() ([]Fig7Row, error) {
	benches := rodinia.AllExtended()
	times, err := grid(len(benches), len(GPUSystems), func(r, c int) (sim.Duration, error) {
		b, system := benches[r], GPUSystems[c]
		d, err := RunOnSystem(system, b.Cubin(), nil, nil, b.Run)
		if err != nil {
			return 0, fmt.Errorf("fig7 %s on %s: %w", b.Name, system, err)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for r, b := range benches {
		row := Fig7Row{
			Benchmark:  b.Name,
			Times:      make(map[baseline.System]sim.Duration),
			Normalized: make(map[baseline.System]float64),
		}
		for s, system := range GPUSystems {
			row.Times[system] = times[r][s]
		}
		native := float64(row.Times[baseline.Native])
		for s, d := range row.Times {
			row.Normalized[s] = float64(d) / native
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure7 formats the rows like the paper's normalized bar chart.
func RenderFigure7(rows []Fig7Row) *Table {
	t := &Table{
		Title:   "Figure 7: Normalized computation time of Rodinia (vs native gdev)",
		Columns: []string{"benchmark", "native(ms)", "trustzone", "hix-trustzone", "cronus"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Benchmark,
			ms(r.Times[baseline.Native]),
			fmt.Sprintf("%.3fx", r.Normalized[baseline.TrustZone]),
			fmt.Sprintf("%.3fx", r.Normalized[baseline.HIX]),
			fmt.Sprintf("%.3fx", r.Normalized[baseline.CRONUS]),
		})
	}
	return t
}
