package experiments

import (
	"fmt"

	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// ServeRow is one serving-plane run at a fixed offered load and one dynamic
// batching setting.
type ServeRow struct {
	MaxBatch   int
	AvgBatch   float64
	Offered    uint64
	Completed  uint64
	Shed       uint64
	P50        sim.Duration
	P95        sim.Duration
	GoodputRPS float64
}

// ServeBatchSweep drives the multi-tenant serving plane (internal/serve) at
// a saturating offered load and sweeps the dynamic batch cap. The load is
// deliberately in the regime where per-item device work is comparable to the
// fixed per-batch overhead (sRPC round trips, kernel dispatch), so batching
// amortization shows up directly as lower p50 and higher goodput.
func ServeBatchSweep(batchCaps []int) ([]ServeRow, error) {
	if len(batchCaps) == 0 {
		batchCaps = []int{1, 4, 8}
	}
	rows := make([]ServeRow, len(batchCaps))
	err := each(len(rows), func(i int) error {
		mb := batchCaps[i]
		cfg := serve.Config{
			Seed:          17,
			Window:        20 * sim.Millisecond,
			Policy:        serve.RoundRobin,
			MaxBatch:      mb,
			BatchWindow:   40 * sim.Microsecond,
			GPUPartitions: 1,
			GPUFlopsPerNs: 400,
			Tenants: []serve.TenantSpec{
				{
					Name: "load", Arrival: serve.FixedRate, Rate: 90000, QueueCap: 64,
					Mix: []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}},
				},
			},
		}
		res, err := serve.Run(cfg)
		if err != nil {
			return fmt.Errorf("serve sweep max-batch=%d: %w", mb, err)
		}
		tr := res.Tenants[0]
		rows[i] = ServeRow{
			MaxBatch:   mb,
			AvgBatch:   res.AvgBatch(),
			Offered:    tr.Offered,
			Completed:  tr.Completed,
			Shed:       tr.Shed,
			P50:        sim.Duration(tr.P50NS),
			P95:        sim.Duration(tr.P95NS),
			GoodputRPS: tr.GoodputRPS,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderServeBatchSweep formats the batch sweep.
func RenderServeBatchSweep(rows []ServeRow) *Table {
	t := &Table{
		Title:   "Serving plane: throughput vs dynamic batch cap at fixed offered load",
		Columns: []string{"max-batch", "avg-batch", "offered", "completed", "shed", "p50", "p95", "goodput/s"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.MaxBatch),
			fmt.Sprintf("%.2f", r.AvgBatch),
			fmt.Sprintf("%d", r.Offered),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Shed),
			r.P50.String(),
			r.P95.String(),
			fmt.Sprintf("%.0f", r.GoodputRPS),
		})
	}
	return t
}
