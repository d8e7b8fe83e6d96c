package experiments

import (
	"fmt"

	"cronus/internal/core"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// HangDetectionRow is one watchdog configuration: the heartbeat policy, its
// analytic worst-case detection bound, and the latency actually measured
// from wedging an mOS heartbeat publisher to the watchdog's FailHang.
type HangDetectionRow struct {
	HeartbeatEvery sim.Duration
	MissedBeats    int
	Bound          sim.Duration
	Measured       sim.Duration
}

// HangDetectionSweep measures watchdog detection latency across heartbeat
// periods and missed-beat budgets: boot a platform with supervision enabled,
// wedge the GPU mOS's heartbeat publisher at a known off-grid instant, and
// record the FailHang the watchdog raises. Every measured latency must sit
// within the analytic bound (period × (missed beats + 2)); the renderer
// flags any row that escapes it.
func HangDetectionSweep() ([]HangDetectionRow, error) {
	policies := []spm.Supervision{
		{HeartbeatEvery: 100 * sim.Microsecond, MissedBeats: 2},
		{HeartbeatEvery: 200 * sim.Microsecond, MissedBeats: 3},
		{HeartbeatEvery: 500 * sim.Microsecond, MissedBeats: 3},
		{HeartbeatEvery: sim.Millisecond, MissedBeats: 5},
	}
	rows := make([]HangDetectionRow, len(policies))
	err := each(len(rows), func(i int) error {
		pol := policies[i]
		row := &rows[i]
		*row = HangDetectionRow{HeartbeatEvery: pol.HeartbeatEvery, MissedBeats: pol.MissedBeats}
		err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			pl.SPM.SetSupervision(pol)
			row.Bound = pl.SPM.SupervisionConfig().HangDetectionBound()
			var failedAt sim.Time
			unsub := pl.SPM.OnFailure(func(rec *spm.FailureRecord) {
				if failedAt == 0 && rec.Reason == spm.FailHang {
					failedAt = rec.FailedAt
				}
			})
			defer unsub()
			os := pl.GPUs[0].OS
			os.StartHeartbeat(pol.HeartbeatEvery)
			pl.SPM.StartWatchdog()
			// Let beats land so the watchdog has observed progress, then
			// wedge off-phase from the poll grid — the worst case the bound
			// budgets for.
			p.Sleep(10*pol.HeartbeatEvery + 30*sim.Microsecond)
			if !os.InjectWedge() {
				return fmt.Errorf("wedge refused (partition not ready)")
			}
			wedgedAt := p.Now()
			p.Sleep(2 * row.Bound)
			if failedAt == 0 {
				return fmt.Errorf("watchdog never detected the wedge")
			}
			row.Measured = sim.Duration(failedAt - wedgedAt)
			return nil
		})
		if err != nil {
			return fmt.Errorf("hang-detection sweep (period %s, k %d): %w",
				pol.HeartbeatEvery, pol.MissedBeats, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderHangDetectionSweep formats the watchdog detection-latency table.
func RenderHangDetectionSweep(rows []HangDetectionRow) *Table {
	t := &Table{
		Title:   "Watchdog hang detection: analytic bound vs measured latency",
		Columns: []string{"heartbeat", "missed beats", "bound", "measured", "within"},
	}
	for _, r := range rows {
		within := "yes"
		if r.Measured > r.Bound {
			within = "NO"
		}
		t.Rows = append(t.Rows, []string{
			r.HeartbeatEvery.String(),
			fmt.Sprintf("%d", r.MissedBeats),
			r.Bound.String(),
			r.Measured.String(),
			within,
		})
	}
	return t
}
