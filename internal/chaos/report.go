package chaos

import (
	"fmt"
	"strings"

	"cronus/internal/serve"
	"cronus/internal/sim"
)

// RunReport is the outcome of one chaos seed on either topology: the compiled
// schedule, both serving results, and every invariant violation (empty on a
// clean run). Fired, InjectAt, PartStates, ProbeLines and FlightDumps are the
// Injector's and probes' evidence and stay empty on the cluster topology,
// where faults ride the serving config and are reported as armed.
type RunReport struct {
	// Seed is the schedule seed.
	Seed int64
	// Opts are the (defaulted) options the run used.
	Opts Options
	// Schedule is the compiled fault plan.
	Schedule *Schedule
	// Fired is index-aligned with Schedule.Faults (nil on the cluster
	// topology).
	Fired []bool
	// InjectAt is index-aligned with Schedule.Faults: the virtual instant a
	// persistent-hang wedge landed (zero for every other kind).
	InjectAt []sim.Time
	// PartStates holds each partition's state after the faulted run drained
	// (index = partition), the evidence the crash-loop quarantine check
	// reads.
	PartStates []string
	// Baseline and Faulted are the two serving results.
	Baseline, Faulted *serve.Result
	// ProbeLines are the isolation-probe audit lines.
	ProbeLines []string
	// Violations lists every invariant the run broke.
	Violations []string
	// FlightDumps are rendered flight-recorder dumps (Options.Trace only):
	// quarantine auto-dumps, plus every ring when an invariant failed.
	FlightDumps []string
}

// Passed reports whether the run upheld every invariant.
func (rr *RunReport) Passed() bool { return len(rr.Violations) == 0 }

// FiredCount is the number of faults that actually triggered.
func (rr *RunReport) FiredCount() int {
	n := 0
	for _, f := range rr.Fired {
		if f {
			n++
		}
	}
	return n
}

// Report renders the run as deterministic text: same (seed, Options) in,
// byte-identical text out — the replay contract cronus-chaos -verify checks.
func (rr *RunReport) Report() string {
	var b strings.Builder
	if rr.Opts.cluster() {
		fmt.Fprintf(&b, "chaos cluster seed=%d nodes=%d tenants=%d partitions=%d window=%v: %d faults\n",
			rr.Seed, rr.Opts.Nodes, rr.Opts.Tenants, rr.Opts.Partitions, rr.Opts.Window,
			len(rr.Schedule.Faults))
	} else {
		fmt.Fprintf(&b, "chaos seed=%d tenants=%d partitions=%d window=%v: %d faults, %d fired\n",
			rr.Seed, rr.Opts.Tenants, rr.Opts.Partitions, rr.Opts.Window,
			len(rr.Schedule.Faults), rr.FiredCount())
	}
	for i, f := range rr.Schedule.Faults {
		state := "armed"
		if !rr.Opts.cluster() {
			state = "dormant"
			if rr.Fired[i] {
				state = "fired"
			}
		}
		fmt.Fprintf(&b, "  [%d] %-58s %s\n", i, f, state)
	}
	for i, f := range rr.Schedule.Faults {
		if f.Kind == KindPersistentHang && rr.Fired[i] {
			fmt.Fprintf(&b, "hang inject: fault %d wedged gpu-part%d at %s\n",
				i, f.Partition, sim.Duration(rr.InjectAt[i]))
		}
	}
	if len(rr.PartStates) > 0 {
		fmt.Fprintf(&b, "partition states after drain: %s\n", strings.Join(rr.PartStates, " "))
	}
	b.WriteString("faulted run:\n")
	b.WriteString(indent(rr.Faulted.Report()))
	victims := rr.victimTenants()
	for ti := range rr.Faulted.Tenants {
		if victims[ti] || ti >= len(rr.Baseline.Tenants) {
			continue
		}
		ft, bt := &rr.Faulted.Tenants[ti], &rr.Baseline.Tenants[ti]
		fmt.Fprintf(&b, "survivor %s: p95 %s (baseline %s)\n",
			ft.Name, sim.Duration(ft.P95NS), sim.Duration(bt.P95NS))
	}
	for _, l := range rr.ProbeLines {
		fmt.Fprintf(&b, "%s\n", l)
	}
	for _, d := range rr.FlightDumps {
		b.WriteString(indent(d))
	}
	if rr.Passed() {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%d violations)\n", len(rr.Violations))
		for _, v := range rr.Violations {
			fmt.Fprintf(&b, "  violation: %s\n", v)
		}
	}
	return b.String()
}

// CampaignReport aggregates a soak over consecutive seeds.
type CampaignReport struct {
	// BaseSeed is the first seed of the campaign.
	BaseSeed int64
	// Opts are the shared (defaulted) run options.
	Opts Options
	// Runs holds one report per seed, in seed order.
	Runs []*RunReport
}

// Violations is the total violation count across all runs.
func (cr *CampaignReport) Violations() int {
	n := 0
	for _, rr := range cr.Runs {
		n += len(rr.Violations)
	}
	return n
}

// Passed reports whether every seed upheld every invariant.
func (cr *CampaignReport) Passed() bool { return cr.Violations() == 0 }

// Report renders the campaign summary: one line per seed, then the verdict.
// Failing seeds additionally get their full run report appended, so a soak
// failure is diagnosable from the text alone. Single-platform campaigns count
// fired faults; cluster faults ride the serving config, so cluster campaigns
// count armed ones.
func (cr *CampaignReport) Report() string {
	var b strings.Builder
	last := cr.BaseSeed + int64(len(cr.Runs)) - 1
	counted := "fired"
	if cr.Opts.cluster() {
		counted = "armed"
		fmt.Fprintf(&b, "chaos cluster campaign: seeds %d..%d (%d runs, %d nodes)\n",
			cr.BaseSeed, last, len(cr.Runs), cr.Opts.Nodes)
	} else {
		fmt.Fprintf(&b, "chaos campaign: seeds %d..%d (%d runs)\n", cr.BaseSeed, last, len(cr.Runs))
	}
	total := 0
	for _, rr := range cr.Runs {
		verdict := "PASS"
		if !rr.Passed() {
			verdict = fmt.Sprintf("FAIL (%d violations)", len(rr.Violations))
		}
		if cr.Opts.cluster() {
			fmt.Fprintf(&b, "  seed %4d: %d faults, %s\n", rr.Seed, len(rr.Schedule.Faults), verdict)
			total += len(rr.Schedule.Faults)
		} else {
			fmt.Fprintf(&b, "  seed %4d: %d faults, %d fired, %s\n",
				rr.Seed, len(rr.Schedule.Faults), rr.FiredCount(), verdict)
			total += rr.FiredCount()
		}
	}
	fmt.Fprintf(&b, "total: %d faults %s, %d violations\n", total, counted, cr.Violations())
	for _, rr := range cr.Runs {
		if !rr.Passed() {
			fmt.Fprintf(&b, "--- seed %d ---\n%s", rr.Seed, rr.Report())
		}
	}
	return b.String()
}

// indent prefixes every non-empty line with two spaces.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = "  " + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}
