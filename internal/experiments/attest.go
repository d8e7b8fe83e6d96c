package experiments

import (
	"fmt"

	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// AttestRow is one serving-plane run under one attestation mode: the gate
// off, the gate forced cold on every dispatch (ticket TTL below the
// inter-dispatch gap, so no session ever resumes), or the gate with live
// session tickets.
type AttestRow struct {
	Tenants int
	Mode    string // "off", "cold", "tickets"

	Cold    uint64 // dispatches that paid the quote verification
	Resumed uint64 // dispatches that resumed on a session ticket
	HitRate float64

	// MeanAdmitNS is the mean attestation delay charged per dispatch
	// (serve.attest.admission_ns); zero with the gate off. ColdMeanNS and
	// ResumeMeanNS split it by path: what a cold attestation actually cost
	// (the quote verification, amortized by the verify cache after the
	// first) versus what a ticket resume cost (one MAC, always).
	MeanAdmitNS  float64
	ColdMeanNS   float64
	ResumeMeanNS float64

	P50        sim.Duration
	P95        sim.Duration
	GoodputRPS float64
}

// AttestAmortization sweeps the tenant count with the attestation admission
// gate in three modes — off, every-dispatch-cold, and session-ticket
// resumption — at a fixed per-tenant load. A ticket resume pays one MAC
// (Costs.MACFixed). A cold session pays the verify cache's delay plus the
// MAC that seals its fresh ticket; the first verification of a
// (measurement, epoch) costs the quote check (Costs.VerifyFixed x 2, what
// Platform.RemoteAttest charges), and every later one is memoized and costs
// nothing. Every partition boots the same mOS image, so once that verdict
// is cached a cold session pays exactly what a resume does: the cold and
// tickets rows are equal in mean-admit, p50 and p95 at every tenant count,
// and both sit within 4% of the gate-off p50. What tickets change here is
// how many dispatches touch the quote machinery (the hit rate), not
// latency.
func AttestAmortization(tenantCounts []int) ([]AttestRow, error) {
	if len(tenantCounts) == 0 {
		tenantCounts = []int{2, 4, 8}
	}
	modes := []struct {
		name string
		set  func(*serve.Config)
	}{
		{"off", func(cfg *serve.Config) {}},
		{"cold", func(cfg *serve.Config) {
			cfg.AttestTickets = true
			// A ticket that expires before the tenant's next dispatch:
			// every admission goes through the cold quote verification.
			cfg.AttestTicketTTL = 1 * sim.Nanosecond
		}},
		{"tickets", func(cfg *serve.Config) {
			cfg.AttestTickets = true // default TTL: sessions resume
		}},
	}
	rows := make([]AttestRow, len(tenantCounts)*len(modes))
	err := each(len(rows), func(i int) error {
		n, m := tenantCounts[i/len(modes)], modes[i%len(modes)]
		cfg := serve.Config{
			Seed:          29,
			Window:        20 * sim.Millisecond,
			Policy:        serve.RoundRobin,
			MaxBatch:      4,
			BatchWindow:   40 * sim.Microsecond,
			GPUPartitions: 2,
		}
		for t := 0; t < n; t++ {
			cfg.Tenants = append(cfg.Tenants, serve.TenantSpec{
				Name:    fmt.Sprintf("tenant-%d", t),
				Arrival: serve.Poisson,
				Rate:    2000,
				Mix:     []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}},
			})
		}
		m.set(&cfg)
		res, err := serve.Run(cfg)
		if err != nil {
			return fmt.Errorf("attest sweep tenants=%d mode=%s: %w", n, m.name, err)
		}
		row := AttestRow{Tenants: n, Mode: m.name}
		var p50s, p95s, goodput float64
		for _, tr := range res.Tenants {
			p50s += tr.P50NS
			p95s += tr.P95NS
			goodput += tr.GoodputRPS
		}
		row.P50 = sim.Duration(p50s / float64(n))
		row.P95 = sim.Duration(p95s / float64(n))
		row.GoodputRPS = goodput
		c := res.Metrics.Counters
		row.Cold = c["serve.attest.cold"]
		row.Resumed = c["serve.attest.resumed"]
		if total := row.Cold + row.Resumed; total > 0 {
			row.HitRate = float64(row.Resumed) / float64(total)
			h := res.Metrics.Histograms["serve.attest.admission_ns"]
			row.MeanAdmitNS = float64(h.Sum) / float64(total)
		}
		if row.Cold > 0 {
			h := res.Metrics.Histograms["serve.attest.cold_ns"]
			row.ColdMeanNS = float64(h.Sum) / float64(row.Cold)
		}
		if row.Resumed > 0 {
			h := res.Metrics.Histograms["serve.attest.resume_ns"]
			row.ResumeMeanNS = float64(h.Sum) / float64(row.Resumed)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderAttestAmortization formats the attestation amortization sweep.
func RenderAttestAmortization(rows []AttestRow) *Table {
	t := &Table{
		Title:   "Attestation at scale: admission cost, gate off vs cold vs session tickets",
		Columns: []string{"tenants", "mode", "cold", "resumed", "hit%", "cold-mean", "resume-mean", "mean-admit", "p50", "p95", "goodput/s"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Tenants),
			r.Mode,
			fmt.Sprintf("%d", r.Cold),
			fmt.Sprintf("%d", r.Resumed),
			fmt.Sprintf("%.1f%%", r.HitRate*100),
			sim.Duration(r.ColdMeanNS).String(),
			sim.Duration(r.ResumeMeanNS).String(),
			sim.Duration(r.MeanAdmitNS).String(),
			r.P50.String(),
			r.P95.String(),
			fmt.Sprintf("%.0f", r.GoodputRPS),
		})
	}
	return t
}
