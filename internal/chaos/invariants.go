package chaos

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"cronus/internal/attest"
	"cronus/internal/cluster"
	"cronus/internal/mos"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// A survivor tenant's faulted p95 may differ from its baseline p95 by
// survivorRelTol of the baseline or survivorAbsTol, whichever is larger.
const (
	survivorRelTol = 0.02
	survivorAbsTol = 20 * sim.Microsecond
)

// checkInvariants audits one finished seed. Every violated invariant becomes
// one deterministic line. The core — conservation, exactly-once, typed
// failures, survivors against baseline — is stated once for both topologies;
// the per-fault and per-layer checks around it key on evidence only their own
// topology produces (a fired wedge, a traced request, a ticket cache, an
// elastic event log), so they are additions to the core, not a second copy.
func (rr *RunReport) checkInvariants() []string {
	var v []string
	for _, run := range []struct {
		label string
		res   *serve.Result
	}{{"baseline", rr.Baseline}, {"faulted", rr.Faulted}} {
		for _, c := range run.res.Conservation() {
			v = append(v, run.label+" "+c)
		}
		v = append(v, checkObservability(run.label, run.res)...)
		// No-split-brain: a tenant's requests were never concurrently live
		// on two nodes.
		if run.res.SplitBrain != 0 {
			v = append(v, fmt.Sprintf("%s: split-brain ledger read %d, want 0", run.label, run.res.SplitBrain))
		}
		// No completion may ever land on a partition after its revocation
		// (untrusted results must shed, not leak).
		if n := run.res.Metrics.Counters["serve.attest.post_revoke_completions"]; n != 0 {
			v = append(v, fmt.Sprintf("%s: %d completions landed on revoked partitions, want 0", run.label, n))
		}
	}
	// Exactly-once with typed failures: everything admitted completes once
	// (conservation covers the counts; here we catch lost records), and every
	// failure is one of the plane's typed errors.
	for _, r := range rr.Faulted.Requests {
		if r.Done == 0 {
			v = append(v, fmt.Sprintf("request %d (%s) admitted but never completed", r.ID, r.Tenant))
			continue
		}
		if r.Err != nil {
			var te *serve.TimeoutError
			var pq *serve.PoolQuarantinedError
			var np *cluster.NetPartitionedError
			var rv *attest.RevokedError
			if !errors.As(r.Err, &te) && !errors.As(r.Err, &pq) && !errors.As(r.Err, &np) &&
				!errors.As(r.Err, &rv) && !errors.Is(r.Err, mos.ErrRingCorrupt) {
				v = append(v, fmt.Sprintf("request %d (%s) failed with untyped error %q",
					r.ID, r.Tenant, r.Err))
			}
		}
	}
	for i, f := range rr.Schedule.Faults {
		v = append(v, rr.checkFault(i, f)...)
	}
	// Cross-node failover: every tenant homed on a crashed node must have
	// re-hashed to a survivor (compileCluster guarantees one exists).
	_, crashNodes := rr.Schedule.faultNodes()
	for ti := range rr.Faulted.Tenants {
		if ft := &rr.Faulted.Tenants[ti]; crashNodes[ft.Home] && !ft.Rehomed {
			v = append(v, fmt.Sprintf("tenant %s homed on crashed node n%d never rehomed", ft.Name, ft.Home))
		}
	}
	// A scale-storm arms the autoscaler in both runs; the faulted run must
	// have the layer up, and the baseline controller — armed with inert
	// watermarks and no storm windows — must never have acted, proving the
	// oscillation came from the fault and nothing else.
	if rr.Schedule.has(KindScaleStorm) {
		if rr.Faulted.Elastic == nil {
			v = append(v, "scale-storm armed but the faulted run has no elastic layer")
		}
		if be := rr.Baseline.Elastic; be == nil {
			v = append(v, "scale-storm in the mix but the baseline run has no elastic layer")
		} else if be.ScaleUps != 0 || be.ScaleDowns != 0 || be.Migrations != 0 {
			v = append(v, fmt.Sprintf(
				"baseline autoscaler acted without a storm (ups=%d downs=%d migrations=%d)",
				be.ScaleUps, be.ScaleDowns, be.Migrations))
		}
	}
	// Survivors — tenants no fault can touch. Their arrival process never
	// depends on faults, so Offered must always match, and ordinarily so must
	// everything else: identical accounting, p95 within tolerance. The
	// plane-wide cluster faults relax that to the arrival check: after a node
	// crash the rehomed load lands on survivor nodes legitimately, an
	// attest-storm hits every tenant's admission path, a revocation can
	// rehome its victims' tenants onto survivor nodes, and a scale-storm's
	// forced capacity oscillation is plane-wide by design. Planned migrations
	// stay strict: they perturb only their two endpoints, both marked faulted.
	relaxed := len(crashNodes) > 0 || rr.Schedule.has(KindAttestStorm) ||
		rr.Schedule.has(KindStaleMeasurement) || rr.Schedule.has(KindScaleStorm)
	victims := rr.victimTenants()
	for ti := range rr.Faulted.Tenants {
		if victims[ti] || ti >= len(rr.Baseline.Tenants) {
			continue
		}
		ft, bt := &rr.Faulted.Tenants[ti], &rr.Baseline.Tenants[ti]
		if ft.Offered != bt.Offered {
			v = append(v, fmt.Sprintf("survivor %s: offered %d drifted from baseline %d",
				ft.Name, ft.Offered, bt.Offered))
		}
		if relaxed {
			continue
		}
		if ft.Completed != bt.Completed || ft.Shed != bt.Shed || ft.Failed != bt.Failed {
			v = append(v, fmt.Sprintf(
				"survivor %s: accounting drifted from baseline (completed %d/%d shed %d/%d failed %d/%d)",
				ft.Name, ft.Completed, bt.Completed, ft.Shed, bt.Shed, ft.Failed, bt.Failed))
		}
		tol := math.Max(survivorRelTol*bt.P95NS, float64(survivorAbsTol))
		if math.Abs(ft.P95NS-bt.P95NS) > tol {
			v = append(v, fmt.Sprintf("survivor %s: p95 %s drifted beyond tolerance of baseline %s",
				ft.Name, sim.Duration(ft.P95NS), sim.Duration(bt.P95NS)))
		}
		// Survivor SLO accounting must match baseline exactly — the burn
		// rate of a tenant untouched by the fault must not move.
		if ti < len(rr.Faulted.SLOs) && ti < len(rr.Baseline.SLOs) {
			fs, bs := &rr.Faulted.SLOs[ti], &rr.Baseline.SLOs[ti]
			if fs.Good != bs.Good || fs.Bad != bs.Bad {
				v = append(v, fmt.Sprintf(
					"survivor %s: SLO accounting drifted from baseline (good %d/%d bad %d/%d)",
					ft.Name, fs.Good, bs.Good, fs.Bad, bs.Bad))
			}
		}
	}
	return v
}

// checkObservability audits the observability layer's own invariants on one
// run (the flow-model plane records neither, so this is vacuous on the fabric):
// every per-request causal trace must be conservative (stage segments
// contiguous over [arrived, done], so attributions sum to the latency
// exactly), and per-tenant SLO accounting must balance against the serving
// counters (every completion scored exactly once, good+bad =
// completed+failed).
func checkObservability(label string, res *serve.Result) []string {
	var v []string
	for i := range res.Traces {
		if err := res.Traces[i].Validate(); err != nil {
			v = append(v, fmt.Sprintf("%s: non-conservative attribution: %v", label, err))
		}
	}
	for i := range res.SLOs {
		s := &res.SLOs[i]
		t := res.Tenant(s.Name)
		if t == nil {
			v = append(v, fmt.Sprintf("%s: SLO row for unknown tenant %s", label, s.Name))
			continue
		}
		if s.Good+s.Bad != t.Completed+t.Failed {
			v = append(v, fmt.Sprintf(
				"%s %s: SLO outcomes %d (good %d + bad %d) != completions %d (completed %d + failed %d)",
				label, s.Name, s.Good+s.Bad, s.Good, s.Bad,
				t.Completed+t.Failed, t.Completed, t.Failed))
		}
	}
	return v
}

// checkFault audits the one invariant a single compiled fault arms, from the
// evidence its injection leaves behind. A fired persistent hang must be
// detected by the watchdog within the health policy's HangDetectionBound; a
// fired crash-loop must leave its partition quarantined after the drain; a
// stale-measurement victim must show the revoked + quarantined failure the
// prober is supposed to raise; a migration fault must show in the elastic
// event log (checkMigrationFault).
func (rr *RunReport) checkFault(i int, f *Fault) []string {
	switch f.Kind {
	case KindPersistentHang:
		if !rr.Fired[i] {
			return nil
		}
		bound := serve.HealthPolicy().HangDetectionBound()
		injected := rr.InjectAt[i]
		part := fmt.Sprintf("gpu-part%d", f.Partition)
		detected, reason := firstFailureAfter(rr.Faulted, part, injected)
		switch {
		case detected == 0:
			return []string{fmt.Sprintf("persistent hang on %s injected at %s never detected",
				part, sim.Duration(injected))}
		case reason == spm.FailHang && sim.Duration(detected-injected) > bound:
			return []string{fmt.Sprintf(
				"persistent hang on %s detected at %s, %s after injection (bound %s)",
				part, sim.Duration(detected), sim.Duration(detected-injected), bound)}
		}
		// A non-hang failure arriving first (an overlapping crash on the same
		// partition) restarts the mOS and re-arms its heartbeat, clearing the
		// wedge — detection by proxy, not a violation.
	case KindCrashLoop:
		if st := rr.PartStates[f.Partition]; rr.Fired[i] && st != "quarantined" {
			return []string{fmt.Sprintf(
				"crash-loop on gpu-part%d fired but partition ended %q, not quarantined",
				f.Partition, st)}
		}
	case KindStaleMeasurement:
		victim := fmt.Sprintf("n%d/gpu-part%d", f.Node, f.Partition)
		for _, fs := range rr.Faulted.Failures {
			if fs.Partition == victim && fs.Reason == spm.FailRevoked && fs.Quarantined {
				return nil
			}
		}
		return []string{fmt.Sprintf("stale measurement on %s never produced a revoked quarantine", victim)}
	case KindMigrateInterrupt, KindDrainRace:
		return rr.checkMigrationFault(f)
	}
	return nil
}

// firstFailureAfter finds the first failure of the named partition at or
// after t, returning its instant and reason (zero instant when none).
func firstFailureAfter(res *serve.Result, part string, t sim.Time) (sim.Time, spm.FailReason) {
	for _, f := range res.Failures {
		if f.Partition == part && f.FailedAt >= t {
			return f.FailedAt, f.Reason
		}
	}
	return 0, 0
}

// elasticEvent reports whether the run's elastic event log contains substr.
func elasticEvent(r *serve.Result, substr string) bool {
	if r.Elastic == nil {
		return false
	}
	for _, e := range r.Elastic.Events {
		if strings.Contains(e, substr) {
			return true
		}
	}
	return false
}

// checkMigrationFault audits one armed migration fault against the faulted
// run's elastic event log. The migration must at least have been attempted
// (elMigrate always logs a quiesce or a skip for its source). A skip is
// legitimate — an earlier fault can take either endpoint out of service — but
// an attempted migrate-interrupt must show the crash-failover fallback (the
// interrupt event plus a recorded panic on the source), and an attempted
// drain-race must show the race injected and the migration still completing.
func (rr *RunReport) checkMigrationFault(f *Fault) []string {
	var v []string
	src := fmt.Sprintf("n%d/gpu-part%d", f.Node, f.Partition)
	label := fmt.Sprintf("migration %s -> n%d/gpu-part%d", src, f.ToNode, f.ToPart)
	if !elasticEvent(rr.Faulted, label) {
		return []string{fmt.Sprintf("%s armed but the elastic layer never attempted it", f.Kind)}
	}
	if elasticEvent(rr.Faulted, label+" skipped") {
		return nil
	}
	switch f.Kind {
	case KindMigrateInterrupt:
		if !elasticEvent(rr.Faulted, label+" interrupted") {
			v = append(v, fmt.Sprintf("migrate-interrupt on %s ran but never interrupted", src))
		}
		found := false
		for _, fs := range rr.Faulted.Failures {
			if fs.Partition == src && fs.Reason == spm.FailPanic {
				found = true
				break
			}
		}
		if !found {
			v = append(v, fmt.Sprintf(
				"migrate-interrupt on %s never fell back to crash-failover (no panic recorded)", src))
		}
	case KindDrainRace:
		if !elasticEvent(rr.Faulted, "drain-race") {
			v = append(v, fmt.Sprintf("drain-race on %s ran but never injected the race", src))
		}
		if !elasticEvent(rr.Faulted, label+" completed") {
			v = append(v, fmt.Sprintf("drain-race migration %s never completed", src))
		}
	}
	return v
}
