package serve

import (
	"fmt"
	"strings"

	"cronus/internal/metrics"
	"cronus/internal/otrace"
	"cronus/internal/sim"
	"cronus/internal/slo"
	"cronus/internal/spm"
	"cronus/internal/trace"
)

// TenantResult is one tenant's per-run SLO accounting.
type TenantResult struct {
	Name string

	Offered    uint64
	Admitted   uint64
	Shed       uint64
	Completed  uint64
	Failed     uint64
	Replayed   uint64 // failover replays (requeue events, summed over requests)
	Retried    uint64 // watchdog retries (timeout/corruption, summed over requests)
	Timeouts   uint64 // batch attempts abandoned by the request watchdog
	Duplicates uint64 // duplicate completions observed (must stay 0)

	// Latency quantiles over completed requests, virtual nanoseconds.
	P50NS  float64
	P95NS  float64
	P99NS  float64
	MeanNS float64

	// GoodputRPS is completed requests per virtual second of load window.
	GoodputRPS float64
	// ShedRate is shed/offered (0 when nothing was offered).
	ShedRate float64

	// Home is the node the placement ring assigned at boot; Rehomed is set
	// when cross-node failover moved the tenant during the run.
	Home    int
	Rehomed bool
}

// FailureSummary is one partition failure observed during the run.
// Recovered is false when the run drained before the partition's mOS
// restart completed (replays were absorbed by surviving replicas) — or,
// when Quarantined is set, because the crash-loop policy refused the
// restart outright.
type FailureSummary struct {
	Partition   string
	Reason      spm.FailReason
	FailedAt    sim.Time
	Recovered   bool
	Quarantined bool
	DowntimeNS  sim.Duration
}

// Result is the outcome of one serving-plane run. All fields derive from
// virtual time and seeded RNG streams, so Report() is byte-identical across
// runs of the same Config.
type Result struct {
	Seed     int64
	Policy   Policy
	MaxBatch int
	Window   sim.Duration

	Tenants []TenantResult

	Batches   uint64
	BatchReqs uint64

	Failures []FailureSummary

	// Requests is the per-request record (set when Config.KeepRequests), in
	// admission order on both planes; ID is the plane-wide admission
	// sequence. Consumers (bench/, internal/chaos, cmd/) do not depend on
	// the order.
	Requests []*Request

	// Traces is the per-request causal record in completion order (set
	// when Config.Trace): feed it to otrace.Attribute for the per-tenant
	// per-stage latency attribution table.
	Traces []otrace.RequestTrace

	// Spans is the collector the run's kernel recorded into — the event
	// spine behind Traces, exported with WriteChromeTrace (nil when the
	// kernel is untraced; Run attaches one when Config.Trace).
	Spans *trace.Collector

	// SLOs is the per-tenant burn-rate accounting (set when Config.SLO).
	SLOs []TenantSLO

	// Metrics is the run's final metrics snapshot, including the tenant
	// latency histograms.
	Metrics *metrics.Snapshot

	// DrainedAt is the virtual time the last admitted request completed.
	DrainedAt sim.Time

	// Nodes is the pool's node count and NodeEvents its deterministic event
	// log (crashes, re-homes); both are presentation of a multi-node pool and
	// stay zero for a pool of one. SplitBrain counts no-split-brain invariant
	// violations — dispatches to a node while another still carried the
	// tenant's live requests — and must stay 0.
	Nodes      int
	SplitBrain uint64
	NodeEvents []string

	// Elastic is the elastic-capacity summary (nil unless migrations or
	// autoscaling were armed).
	Elastic *ElasticResult
}

// ElasticResult summarizes the elastic-capacity layer's run: completed and
// interrupted migrations, injected drain races, autoscaler actions, requests
// replayed at migration drain deadlines, and the deterministic event log.
type ElasticResult struct {
	Migrations  uint64
	Interrupted uint64
	DrainRaces  uint64
	ScaleUps    uint64
	ScaleDowns  uint64
	Replayed    uint64
	Events      []string
}

// TenantSLO is one tenant's SLO outcome at drain time.
type TenantSLO struct {
	Name      string
	Objective slo.Objective
	// Good/Bad are cumulative outcome counts over the whole run.
	Good uint64
	Bad  uint64
	// BudgetConsumed is the fraction of the cumulative error budget burned
	// (>1 means the objective was violated).
	BudgetConsumed float64
	// FastBurn/SlowBurn/Firing are the burn-rate signal at drain time.
	FastBurn float64
	SlowBurn float64
	Firing   bool
}

// AvgBatch is the mean requests per placed batch.
func (r *Result) AvgBatch() float64 {
	if r.Batches == 0 {
		return 0
	}
	return float64(r.BatchReqs) / float64(r.Batches)
}

// Conservation audits the run's flow balance, one line per violation (none
// for a sound run): per tenant, offered = admitted + shed, admitted =
// completed + failed, and zero duplicate completions.
func (r *Result) Conservation() []string {
	var v []string
	for _, t := range r.Tenants {
		if t.Offered != t.Admitted+t.Shed {
			v = append(v, fmt.Sprintf("%s: offered %d != admitted %d + shed %d",
				t.Name, t.Offered, t.Admitted, t.Shed))
		}
		if t.Admitted != t.Completed+t.Failed {
			v = append(v, fmt.Sprintf("%s: admitted %d != completed %d + failed %d",
				t.Name, t.Admitted, t.Completed, t.Failed))
		}
		if t.Duplicates != 0 {
			v = append(v, fmt.Sprintf("%s: %d duplicate completions", t.Name, t.Duplicates))
		}
	}
	return v
}

// Tenant returns the named tenant's result row.
func (r *Result) Tenant(name string) *TenantResult {
	for i := range r.Tenants {
		if r.Tenants[i].Name == name {
			return &r.Tenants[i]
		}
	}
	return nil
}

// Report renders the run as a deterministic text table.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving plane: seed=%d policy=%s max-batch=%d window=%s avg-batch=%.2f\n",
		r.Seed, r.Policy, r.MaxBatch, r.Window, r.AvgBatch())
	if r.Nodes >= 2 {
		fmt.Fprintf(&b, "cluster: nodes=%d split-brain=%d\n", r.Nodes, r.SplitBrain)
		for _, t := range r.Tenants {
			fmt.Fprintf(&b, "cluster: %-12s home=n%d rehomed=%v\n", t.Name, t.Home, t.Rehomed)
		}
		for _, ev := range r.NodeEvents {
			fmt.Fprintf(&b, "node-event: %s\n", ev)
		}
	}
	if r.Elastic != nil {
		e := r.Elastic
		fmt.Fprintf(&b, "elastic: migrations=%d interrupted=%d drain-races=%d scale-ups=%d scale-downs=%d replayed=%d\n",
			e.Migrations, e.Interrupted, e.DrainRaces, e.ScaleUps, e.ScaleDowns, e.Replayed)
		for _, ev := range e.Events {
			fmt.Fprintf(&b, "elastic-event: %s\n", ev)
		}
	}
	fmt.Fprintf(&b, "%-12s %8s %8s %6s %9s %6s %7s %7s %5s %10s %10s %10s %9s %6s\n",
		"tenant", "offered", "admitted", "shed", "completed", "failed", "replays", "retries", "dups",
		"p50", "p95", "p99", "goodput/s", "shed%")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "%-12s %8d %8d %6d %9d %6d %7d %7d %5d %10s %10s %10s %9.0f %5.1f%%\n",
			t.Name, t.Offered, t.Admitted, t.Shed, t.Completed, t.Failed, t.Replayed, t.Retried, t.Duplicates,
			fmtQ(t.P50NS), fmtQ(t.P95NS), fmtQ(t.P99NS), t.GoodputRPS, t.ShedRate*100)
	}
	// Degradation breakdown: where the non-goodput went, per tenant. Shed,
	// timeouts and retries were always counted; this surfaces them next to
	// the quantiles they explain.
	fmt.Fprintf(&b, "degradation: %-12s %8s %9s %8s %8s %7s\n",
		"tenant", "shed", "timeouts", "retries", "replays", "failed")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "degradation: %-12s %8d %9d %8d %8d %7d\n",
			t.Name, t.Shed, t.Timeouts, t.Retried, t.Replayed, t.Failed)
	}
	for _, s := range r.SLOs {
		fmt.Fprintf(&b, "slo: %-12s %s good=%d bad=%d budget-burned=%.1f%% burn fast=%.2f slow=%.2f firing=%v\n",
			s.Name, s.Objective, s.Good, s.Bad, s.BudgetConsumed*100, s.FastBurn, s.SlowBurn, s.Firing)
	}
	for _, f := range r.Failures {
		switch {
		case f.Quarantined && f.Reason == spm.FailRevoked:
			fmt.Fprintf(&b, "failover: %s failed at %s (%s), quarantined by measurement revocation\n",
				f.Partition, sim.Duration(f.FailedAt), f.Reason)
		case f.Quarantined:
			fmt.Fprintf(&b, "failover: %s failed at %s (%s), quarantined by crash-loop policy\n",
				f.Partition, sim.Duration(f.FailedAt), f.Reason)
		case f.Recovered:
			fmt.Fprintf(&b, "failover: %s failed at %s (%s), down %s\n",
				f.Partition, sim.Duration(f.FailedAt), f.Reason, f.DowntimeNS)
		default:
			fmt.Fprintf(&b, "failover: %s failed at %s (%s), still recovering when the run drained\n",
				f.Partition, sim.Duration(f.FailedAt), f.Reason)
		}
	}
	if len(r.Failures) > 0 {
		byReason := r.FailuresByReason()
		fmt.Fprintf(&b, "failures by reason: requested=%d panic=%d hang=%d",
			byReason[spm.FailRequested], byReason[spm.FailPanic], byReason[spm.FailHang])
		if n := byReason[spm.FailRevoked]; n > 0 {
			// Appended only when present, so pre-attestation reports stay
			// byte-identical.
			fmt.Fprintf(&b, " revoked=%d", n)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FailuresByReason counts the run's partition failures per FailReason —
// the report's split of watchdog detections from panics and requested
// restarts.
func (r *Result) FailuresByReason() map[spm.FailReason]int {
	out := make(map[spm.FailReason]int)
	for _, f := range r.Failures {
		out[f.Reason]++
	}
	return out
}

func fmtQ(ns float64) string { return sim.Duration(ns).String() }

// result assembles the Result after the drain completes. The multi-node
// presentation — Nodes, NodeEvents, the n%d/ prefix on failed partitions —
// is the one thing here that asks how many nodes the pool has.
func (srv *Server) result() *Result {
	multiNode := srv.cl.nodes >= 2
	res := &Result{
		Seed:      srv.cfg.Seed,
		Policy:    srv.cfg.Policy,
		MaxBatch:  srv.cfg.MaxBatch,
		Window:    srv.cfg.Window,
		Batches:   srv.batches,
		BatchReqs: srv.batchReqs,
		DrainedAt: srv.pl.K.Now(),
		Requests:  srv.requests,
		Traces:    srv.traces,
		Spans:     trace.Of(srv.pl.K),
		Metrics:   srv.reg.Snapshot(),
	}
	res.SplitBrain = srv.cl.splitBrain
	if multiNode {
		res.Nodes = srv.cl.nodes
		res.NodeEvents = append([]string(nil), srv.cl.events...)
	}
	winSec := float64(srv.cfg.Window) / 1e9
	for _, t := range srv.tenants {
		tr := TenantResult{
			Name:       t.spec.Name,
			Offered:    t.offered,
			Admitted:   t.admitted,
			Shed:       t.shed,
			Completed:  t.completed,
			Failed:     t.failed,
			Replayed:   t.replayed,
			Retried:    t.retried,
			Timeouts:   t.timeouts,
			Duplicates: t.duplicates,
			P50NS:      t.latHist.Quantile(0.50),
			P95NS:      t.latHist.Quantile(0.95),
			P99NS:      t.latHist.Quantile(0.99),
			Home:       t.home0,
			Rehomed:    t.rehomed,
		}
		if n := t.latHist.Count(); n > 0 {
			// The histogram keeps the exact sum; read it from the one snapshot.
			sum := res.Metrics.Histograms["serve.tenant."+t.spec.Name+".latency_ns"].Sum
			tr.MeanNS = float64(sum) / float64(n)
		}
		if winSec > 0 {
			tr.GoodputRPS = float64(t.completed) / winSec
		}
		if t.offered > 0 {
			tr.ShedRate = float64(t.shed) / float64(t.offered)
		}
		res.Tenants = append(res.Tenants, tr)
		if t.slo != nil {
			good, bad := t.slo.Totals()
			sig := t.slo.Signal(res.DrainedAt)
			res.SLOs = append(res.SLOs, TenantSLO{
				Name:           t.spec.Name,
				Objective:      t.slo.Objective(),
				Good:           good,
				Bad:            bad,
				BudgetConsumed: t.slo.BudgetConsumed(),
				FastBurn:       sig.Fast,
				SlowBurn:       sig.Slow,
				Firing:         sig.Firing,
			})
		}
	}
	for i, rec := range srv.failures {
		fs := FailureSummary{
			Partition:   rec.Partition,
			Reason:      rec.Reason,
			FailedAt:    rec.FailedAt,
			Quarantined: rec.Quarantined,
		}
		if multiNode {
			// Partition names repeat across nodes; qualify them.
			fs.Partition = fmt.Sprintf("n%d/%s", srv.failNodes[i], rec.Partition)
		}
		if rec.ReadyAt > 0 {
			fs.Recovered = true
			fs.DowntimeNS = rec.Downtime()
		}
		res.Failures = append(res.Failures, fs)
	}
	if srv.el != nil {
		c := res.Metrics.Counters
		res.Elastic = &ElasticResult{
			Migrations:  c["serve.elastic.migrations"],
			Interrupted: c["serve.elastic.interrupted"],
			DrainRaces:  c["serve.elastic.drain_races"],
			ScaleUps:    c["serve.elastic.scale_ups"],
			ScaleDowns:  c["serve.elastic.scale_downs"],
			Replayed:    c["serve.elastic.replayed"],
			Events:      append([]string(nil), srv.el.events...),
		}
	}
	return res
}
