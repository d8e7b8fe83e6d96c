package chaos

import (
	"fmt"

	"cronus/internal/core"
	"cronus/internal/otrace"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/slo"
	"cronus/internal/trace"
	"cronus/internal/tvm"
)

// serveConfig is the serving-plane load a chaos seed runs against, on either
// topology: dynamic batching, per-request records kept for the conservation
// audit, and the watchdog/retry layer enabled so hangs and lost batches are
// recoverable. A single platform adds device-affinity placement (so fault
// blast radii are attributable to tenants), supervision under
// serve.HealthPolicy — baseline and faulted run alike, so the two timelines
// stay byte-identical up to the first fault — causal tracing and the SLO
// engine. The cluster spans Options.Nodes fabric nodes on the
// flow-model data plane, round-robin placement inside each home group, and
// HashBound 1.0 so the boot assignment spreads tenants evenly — every node
// gets victims and survivors; supervision, tracing and the SLO engine stay
// off there (the flow-model plane rejects them by validation).
// Features a kind in the mix arms (taxonomy) are armed whether or not inject
// is set; only the faulted run (inject) lowers the schedule onto the config's
// fault hooks.
func serveConfig(s *Schedule, o Options, inject bool) serve.Config {
	cfg := serve.Config{
		Seed:          s.Seed,
		Window:        o.Window,
		MaxBatch:      4,
		BatchWindow:   50 * sim.Microsecond,
		GPUPartitions: o.Partitions,
		GPUFlopsPerNs: 400,
		KeepRequests:  true,
	}
	for ti := 0; ti < o.Tenants; ti++ {
		cfg.Tenants = append(cfg.Tenants, serve.TenantSpec{
			Name:     fmt.Sprintf("tenant-%d", ti),
			Arrival:  serve.Poisson,
			Rate:     o.Rate,
			QueueCap: 512,
			Mix:      []serve.WorkClass{{Name: "resnet18", Graph: tvm.ResNet18()}},
		})
	}
	if o.cluster() {
		cfg.Policy = serve.RoundRobin
		cfg.RequestTimeout = 2 * sim.Millisecond
		cfg.Shards = o.Partitions
		cfg.Nodes = o.Nodes
		cfg.HashBound = 1.0
		for _, k := range o.Kinds {
			if arm := lookup(k).arm; arm != nil {
				arm(&cfg)
			}
		}
		if inject {
			s.lower(&cfg)
		}
		return cfg
	}
	cfg.Policy = serve.DeviceAffinity
	cfg.RequestTimeout = 500 * sim.Microsecond
	cfg.Supervise = true
	// Causal tracing and the SLO engine run on every single-platform seed so
	// their invariants soak with the fault mix: per-request stage
	// attributions must stay conservative and SLO accounting must balance
	// under every injected fault. The latency target mirrors the watchdog
	// bound; admission coupling stays off so the baseline-vs-faulted
	// survivor invariants are untouched.
	cfg.Trace = true
	cfg.SLO = &slo.Objective{
		LatencyTarget: 500 * sim.Microsecond,
		ErrorBudget:   0.05,
	}
	return cfg
}

// crashTargets returns the distinct partition indices of the schedule's
// crash and crash-loop faults, in first-occurrence order — the partitions
// whose epochs will roll and whose memory the probes must audit.
func (s *Schedule) crashTargets() []int {
	var parts []int
	seen := make(map[int]bool)
	for _, f := range s.Faults {
		if (f.Kind == KindCrash || f.Kind == KindCrashLoop) && !seen[f.Partition] {
			seen[f.Partition] = true
			parts = append(parts, f.Partition)
		}
	}
	return parts
}

// faultNodes splits the schedule's fabric targets: every faulted node, and
// the subset that crashes outright (both empty on a single platform).
func (s *Schedule) faultNodes() (all, crashes map[int]bool) {
	all, crashes = map[int]bool{}, map[int]bool{}
	for _, f := range s.Faults {
		switch f.Kind {
		case KindNodeCrash:
			all[f.Node] = true
			crashes[f.Node] = true
		case KindNetPartition, KindSlowLink:
			all[f.Node] = true
		case KindStaleMeasurement:
			// A revocation quarantines part of the node's pool: tenants homed
			// there shift load (possibly rehoming), so the node is faulted.
			all[f.Node] = true
		case KindMigrateInterrupt, KindDrainRace:
			// A migration perturbs both ends: the source drains (or crashes,
			// interrupted) and the destination absorbs the moved load and the
			// fabric transfer. Scale-storms are plane-wide and handled by the
			// survivor-check relaxation instead.
			all[f.Node] = true
			all[f.ToNode] = true
		}
	}
	return all, crashes
}

// victimTenants marks every tenant the schedule can touch: tenants pinned to
// a crashed/hung/attest-vetoed partition (device-affinity: tenant i runs on
// partition i mod pool), tenants whose stream a corruption targets, and — on
// the fabric — tenants homed on a faulted node. Everyone else is a survivor
// and must be indistinguishable from baseline.
func (rr *RunReport) victimTenants() map[int]bool {
	targetPart := make(map[int]bool)
	victims := make(map[int]bool)
	for _, f := range rr.Schedule.Faults {
		switch f.Kind {
		case KindCrash, KindDeviceHang, KindAttestFail, KindPersistentHang, KindCrashLoop:
			targetPart[f.Partition] = true
		case KindRingCorrupt:
			victims[f.Tenant] = true
		}
	}
	faultNodes, _ := rr.Schedule.faultNodes()
	for ti := range rr.Faulted.Tenants {
		if targetPart[ti%rr.Opts.Partitions] || faultNodes[rr.Faulted.Tenants[ti].Home] {
			victims[ti] = true
		}
	}
	return victims
}

// execute runs one serving window of the seed and returns its result. On the
// cluster topology the serving plane boots its own kernel and platforms
// (serve.Run) and the faults ride the config. On a single platform the window
// runs on a fresh core.Platform: with inject set the schedule is armed before
// Serve and audited after, leaving the Injector's and probes' evidence in rr
// (probe violations land in rr.Violations); the baseline run still plants the
// probes so the two timelines stay identical until the first fault fires. A
// non-nil rec records the run's event spine: it taps a collector attached to
// this window's kernel before the platform boots, and its rings stay readable
// after it for violation dumps.
func (rr *RunReport) execute(inject bool, rec *otrace.FlightRecorder) (*serve.Result, error) {
	cfg := serveConfig(rr.Schedule, rr.Opts, inject)
	if rr.Opts.cluster() {
		return serve.Run(cfg)
	}
	pcfg := core.DefaultConfig()
	pcfg.GPUs = rr.Opts.Partitions
	pcfg.NPUs = 0
	var res *serve.Result
	err := sim.Run(func(p *sim.Proc) error {
		if rec != nil {
			tc := &trace.Collector{}
			rec.Attach(tc)
			trace.Attach(p.Kernel(), tc)
		}
		pl, err := core.BuildPlatform(p, pcfg)
		if err != nil {
			return err
		}
		srv, err := serve.New(p, pl, cfg)
		if err != nil {
			return err
		}
		ps, err := newProbeSet(p, pl, rr.Schedule.crashTargets())
		if err != nil {
			return err
		}
		var inj *Injector
		if inject {
			inj = NewInjector(pl, rr.Schedule)
			inj.Arm(p)
		}
		if res, err = srv.Serve(p); err != nil {
			return err
		}
		if inject {
			inj.Disarm()
			rr.Fired, rr.InjectAt = inj.fired, inj.injectAt
			var viol []string
			rr.ProbeLines, viol = ps.check(p)
			rr.Violations = append(rr.Violations, viol...)
			// Partition states are snapshotted after the probe audit: the
			// probes' AwaitReady waits ride out in-flight recoveries, so a
			// crash-loop decided at Fail time has actually reached
			// PartQuarantined by the time the invariant reads the state.
			for _, g := range pl.GPUs {
				rr.PartStates = append(rr.PartStates, g.Part.State().String())
			}
		}
		return nil
	})
	return res, err
}

// Run compiles the seed's schedule for the topology Options.Nodes selects and
// executes it: a fault-free baseline, then the faulted run over the identical
// config, then every invariant check. Options no topology can run are
// rejected with a typed usage error (*TopologyError, *serve.ShardLayoutError)
// before anything boots. The returned report is fully deterministic — same
// (seed, Options), byte-identical Report().
func Run(seed int64, o Options) (*RunReport, error) {
	o.defaults()
	sched, err := Compile(seed, o)
	if err != nil {
		return nil, err
	}
	rr := &RunReport{Seed: seed, Opts: o, Schedule: sched}
	if rr.Baseline, err = rr.execute(false, nil); err != nil {
		return nil, fmt.Errorf("chaos: baseline run (seed %d): %w", seed, err)
	}
	// Only the faulted run is traced: span recording costs no virtual time,
	// so the timelines are identical either way — this just keeps baseline
	// runs cheap.
	var rec *otrace.FlightRecorder
	if o.Trace {
		rec = otrace.NewFlightRecorder(0)
	}
	if rr.Faulted, err = rr.execute(true, rec); err != nil {
		return nil, fmt.Errorf("chaos: faulted run (seed %d): %w", seed, err)
	}
	rr.Violations = append(rr.checkInvariants(), rr.Violations...)
	if rec != nil {
		// Quarantine auto-dumps first (capture order), then — only when an
		// invariant failed — every ring, so a FAIL report carries each
		// partition's last moments.
		for _, d := range rec.Dumps() {
			rr.FlightDumps = append(rr.FlightDumps, d.String())
		}
		if len(rr.Violations) > 0 {
			for _, d := range rec.DumpAll("invariant-violation", rr.Faulted.DrainedAt) {
				rr.FlightDumps = append(rr.FlightDumps, d.String())
			}
		}
	}
	return rr, nil
}

// RunCampaign soaks n consecutive seeds starting at baseSeed. It returns an
// error only when a run cannot execute at all; invariant violations are
// collected in the report.
func RunCampaign(baseSeed int64, n int, o Options) (*CampaignReport, error) {
	o.defaults() // the Opts echoed in the report are the set the runs used
	cr := &CampaignReport{BaseSeed: baseSeed, Opts: o}
	for i := 0; i < n; i++ {
		rr, err := Run(baseSeed+int64(i), o)
		if err != nil {
			return nil, err
		}
		cr.Runs = append(cr.Runs, rr)
	}
	return cr, nil
}
