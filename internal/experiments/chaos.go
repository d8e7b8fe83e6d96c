package experiments

import (
	"fmt"

	"cronus/internal/chaos"
	"cronus/internal/sim"
)

// ChaosRow is one soak campaign at one fault mix: how many faults fired,
// what the recovery machinery absorbed (replays, retries, timeouts), the
// worst per-tenant p95 the faults caused, and how many invariants broke
// (always zero on a healthy tree).
type ChaosRow struct {
	Mix        string
	Seeds      int
	Faults     int
	Fired      int
	Replays    uint64
	Retries    uint64
	Timeouts   uint64
	WorstP95   sim.Duration
	Violations int
}

// ChaosSweep soaks the serving plane under each fault kind in isolation and
// then under the full mix, seedsPerMix consecutive seeds each (default 5).
// Every campaign is deterministic, so the table reproduces byte-identically.
func ChaosSweep(seedsPerMix int) ([]ChaosRow, error) {
	if seedsPerMix <= 0 {
		seedsPerMix = 5
	}
	mixes := []struct {
		label  string
		kinds  []chaos.Kind
		faults int
	}{
		{"crash", []chaos.Kind{chaos.KindCrash}, 1},
		{"device-hang", []chaos.Kind{chaos.KindDeviceHang}, 2},
		{"ring-corrupt", []chaos.Kind{chaos.KindRingCorrupt}, 2},
		{"attest-fail", []chaos.Kind{chaos.KindAttestFail}, 1},
		{"persistent-hang", []chaos.Kind{chaos.KindPersistentHang}, 2},
		{"crash-loop", []chaos.Kind{chaos.KindCrashLoop}, 1},
		{"all", nil, 3},
	}
	rows := make([]ChaosRow, len(mixes))
	err := each(len(mixes), func(i int) error {
		m := mixes[i]
		cr, err := chaos.RunCampaign(100, seedsPerMix, chaos.Options{
			Kinds:  m.kinds,
			Faults: m.faults,
		})
		if err != nil {
			return fmt.Errorf("chaos sweep %s: %w", m.label, err)
		}
		row := ChaosRow{Mix: m.label, Seeds: len(cr.Runs), Violations: cr.Violations()}
		for _, rr := range cr.Runs {
			row.Faults += len(rr.Schedule.Faults)
			row.Fired += rr.FiredCount()
			for _, tr := range rr.Faulted.Tenants {
				row.Replays += tr.Replayed
				row.Retries += tr.Retried
				row.Timeouts += tr.Timeouts
				if d := sim.Duration(tr.P95NS); d > row.WorstP95 {
					row.WorstP95 = d
				}
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderChaosSweep formats the chaos soak table.
func RenderChaosSweep(rows []ChaosRow) *Table {
	t := &Table{
		Title: "Chaos soak: fault kinds vs recovery machinery (invariants must hold at 0 violations)",
		Columns: []string{"fault mix", "seeds", "faults", "fired", "replays",
			"retries", "timeouts", "worst p95", "violations"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mix,
			fmt.Sprintf("%d", r.Seeds),
			fmt.Sprintf("%d", r.Faults),
			fmt.Sprintf("%d", r.Fired),
			fmt.Sprintf("%d", r.Replays),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Timeouts),
			r.WorstP95.String(),
			fmt.Sprintf("%d", r.Violations),
		})
	}
	return t
}
