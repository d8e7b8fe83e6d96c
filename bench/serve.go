package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"cronus/internal/cluster"
	"cronus/internal/core"
	"cronus/internal/elastic"
	"cronus/internal/metrics"
	"cronus/internal/otrace"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// servePlan is one serving workload: a Config generator plus the operating
// points frozen for it at the seed commit. Rates are per tenant; arrivals
// are open-loop Poisson scheduled in virtual time, so the generator is never
// late (README, "Load generation").
type servePlan struct {
	name    string
	tenants int
	// refRate is the frozen reference rate (well inside the knee);
	// overloadRate is 1.5x the seed commit's capacity at seed 17 (251.7k,
	// 806k and 820k req/s aggregate), split over the tenants.
	refRate      float64
	overloadRate float64
	// timedWindow sizes one timed slice to about a quarter of a second on
	// the reference box.
	timedWindow sim.Duration
	// faults marks a plan whose Config carries a fault schedule, so
	// recovery is derived from the reference run.
	faults bool
	config func(seed int64, rate float64, window sim.Duration) serve.Config
}

// gpuFlopsPerNs is the serving calibration BENCH_serve.json uses.
const gpuFlopsPerNs = 400

func tenantsOf(n int, rate float64, mix []serve.WorkClass) []serve.TenantSpec {
	out := make([]serve.TenantSpec, n)
	for i := range out {
		out[i] = serve.TenantSpec{
			Name: fmt.Sprintf("t%d", i), Arrival: serve.Poisson, Rate: rate, QueueCap: 64, Mix: mix,
		}
	}
	return out
}

func resnet50Mix() []serve.WorkClass {
	return []serve.WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}}
}

var serveExec = &servePlan{
	name: "serve_exec", tenants: 2,
	refRate: 80000, overloadRate: 188750,
	timedWindow: 75 * sim.Millisecond,
	config: func(seed int64, rate float64, window sim.Duration) serve.Config {
		return serve.Config{
			Seed: seed, Window: window, Policy: serve.LeastOutstanding,
			MaxBatch: 4, BatchWindow: 40 * sim.Microsecond,
			GPUPartitions: 2, GPUFlopsPerNs: gpuFlopsPerNs,
			Tenants: tenantsOf(2, rate, []serve.WorkClass{
				{Name: "resnet18", Weight: 2, Graph: tvm.ResNet18()},
				{Name: "resnet50", Weight: 1, Graph: tvm.ResNet50()},
			}),
		}
	},
}

var serveFlow = &servePlan{
	name: "serve_flow", tenants: 4,
	refRate: 100000, overloadRate: 302250,
	timedWindow: 500 * sim.Millisecond,
	config: func(seed int64, rate float64, window sim.Duration) serve.Config {
		return serve.Config{
			Seed: seed, Window: window, Policy: serve.DeviceAffinity,
			MaxBatch: 4, BatchWindow: 40 * sim.Microsecond,
			GPUPartitions: 4, Shards: 4, GPUFlopsPerNs: gpuFlopsPerNs,
			Tenants: tenantsOf(4, rate, resnet50Mix()),
		}
	},
}

var serveClusterFaults = &servePlan{
	name: "serve_cluster_faults", tenants: 8,
	refRate: 60000, overloadRate: 153750,
	timedWindow: 200 * sim.Millisecond,
	faults:      true,
	config: func(seed int64, rate float64, w sim.Duration) serve.Config {
		return serve.Config{
			Seed: seed, Window: w, Policy: serve.DeviceAffinity,
			MaxBatch: 4, BatchWindow: 40 * sim.Microsecond,
			GPUPartitions: 8, Shards: 8, Nodes: 2, HashBound: 1.0, GPUFlopsPerNs: gpuFlopsPerNs,
			AttestTickets: true, AttestTicketTTL: 5 * sim.Millisecond,
			Tenants: tenantsOf(8, rate, resnet50Mix()),
			// The schedule scales with the window, so a probe, the reference
			// run and a timed repeat all cross the same four events.
			NodeFaults: []cluster.Fault{
				{Kind: cluster.SlowLink, Node: 1, At: w / 8, Until: w/8 + w/16, Mult: 4},
				{Kind: cluster.NodeCrash, Node: 1, At: crashAt(w)},
			},
			Migrations: []serve.Migration{{
				At:   w / 4,
				From: elastic.Endpoint{Node: 0, Part: 1},
				To:   elastic.Endpoint{Node: 0, Part: 0},
			}},
			AttestFaults: []serve.AttestFault{{Kind: serve.AttestStorm, At: 3 * w / 4}},
		}
	},
}

// crashAt is where the plan's fault schedule puts the node crash.
func crashAt(w sim.Duration) sim.Duration { return w / 2 }

// serveRun is one booted-and-drained plane.
type serveRun struct {
	res      *serve.Result
	start    sim.Time      // virtual instant Serve began
	setup    time.Duration // host: kernel creation until serve.NewCluster returned
	timed    hostSample    // the Serve call; ops = completed requests
	counters map[string]uint64
}

// counts is a run's request accounting summed over tenants.
type counts struct {
	offered, admitted, shed, completed, failed uint64
	replayed, retried, timeouts, duplicates    uint64
}

func countsOf(res *serve.Result) counts {
	var c counts
	for _, t := range res.Tenants {
		c.offered += t.Offered
		c.admitted += t.Admitted
		c.shed += t.Shed
		c.completed += t.Completed
		c.failed += t.Failed
		c.replayed += t.Replayed
		c.retried += t.Retried
		c.timeouts += t.Timeouts
		c.duplicates += t.Duplicates
	}
	return c
}

// bad is every request that did not complete cleanly exactly once.
func (c counts) bad() uint64 { return c.shed + c.failed + c.timeouts + c.duplicates }

// serveOnce boots a fresh platform (or cluster) for cfg, serves it and
// drains. It is serve.Run with the host clock read at the layer boundaries.
func serveOnce(e *env, tr *tracer, cfg serve.Config) (*serveRun, error) {
	nodes := cfg.Nodes
	if nodes < 1 {
		nodes = 1
	}
	pcfg := core.DefaultConfig()
	pcfg.GPUs = cfg.GPUPartitions / nodes
	pcfg.NPUs = 0
	pcfg.MPS = true

	run := &serveRun{}
	var bodyErr error
	t0 := time.Now()
	k := sim.NewKernel()
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		bodyErr = func() error {
			var plats []*core.Platform
			err := tr.in("boot", func() error {
				if nodes >= 2 {
					var err error
					plats, err = cluster.BootNodes(p, nodes, pcfg)
					return err
				}
				pl, err := core.BuildPlatform(p, pcfg)
				plats = []*core.Platform{pl}
				return err
			})
			if err != nil {
				return err
			}
			var srv *serve.Server
			err = tr.in("serve.New", func() error {
				var err error
				srv, err = serve.NewCluster(p, plats, cfg)
				return err
			})
			if err != nil {
				return err
			}
			run.setup = time.Since(t0)
			run.start = p.Now()
			tr.begin("Serve")
			run.timed, err = e.measureCalibrated(func() (uint64, error) {
				res, err := srv.Serve(p)
				if err != nil {
					return 0, err
				}
				run.res = res
				return countsOf(res).completed, nil
			})
			run.counters = tr.end()
			return err
		}()
	})
	err := k.Run()
	k.Shutdown()
	if err == nil {
		err = bodyErr
	}
	if err != nil {
		return nil, fmt.Errorf("serve run: %w", err)
	}
	return run, nil
}

// drainLag is how long past the load window the plane was still completing
// admitted work.
func (r *serveRun) drainLag() sim.Duration {
	lag := sim.Duration(r.res.DrainedAt-r.start) - r.res.Window
	if lag < 0 {
		lag = 0
	}
	return lag
}

// serveSession carries one workload run's cross-run tallies.
type serveSession struct {
	e      *env
	plan   *servePlan
	setups []time.Duration
	runs   int
	broken []string // conservation violations, one line each
}

// do runs one Config and applies the checks every serve run must pass:
// offered = completed + shed + failed, no duplicates, no split brain.
func (s *serveSession) do(tr *tracer, cfg serve.Config) (*serveRun, error) {
	run, err := serveOnce(s.e, tr, cfg)
	if err != nil {
		return nil, err
	}
	s.runs++
	s.setups = append(s.setups, run.setup)
	c := countsOf(run.res)
	switch {
	case c.offered != c.completed+c.shed+c.failed:
		s.broken = append(s.broken, fmt.Sprintf("rate %.0f window %v: offered %d != completed %d + shed %d + failed %d",
			cfg.Tenants[0].Rate, cfg.Window, c.offered, c.completed, c.shed, c.failed))
	case c.duplicates != 0:
		s.broken = append(s.broken, fmt.Sprintf("rate %.0f window %v: %d duplicate completions",
			cfg.Tenants[0].Rate, cfg.Window, c.duplicates))
	case run.res.SplitBrain != 0:
		s.broken = append(s.broken, fmt.Sprintf("rate %.0f window %v: split brain %d",
			cfg.Tenants[0].Rate, cfg.Window, run.res.SplitBrain))
	}
	return run, nil
}

// latencies returns the completed requests' exact virtual latencies (sorted)
// and every request's arrival/done pair.
func latencies(res *serve.Result) (sorted []int64, times []reqTimes) {
	sorted = make([]int64, 0, len(res.Requests))
	times = make([]reqTimes, 0, len(res.Requests))
	for _, r := range res.Requests {
		times = append(times, reqTimes{int64(r.Arrived), int64(r.Done)})
		if r.Err == nil {
			sorted = append(sorted, int64(r.Latency()))
		}
	}
	slices.Sort(sorted)
	return sorted, times
}

// sustains is the capacity oracle at one per-tenant rate: nothing shed or
// failed, exact p99 inside the SLO with enough tail samples to mean it, and
// no backlog left past the window.
func (s *serveSession) sustains(rate float64) (bool, error) {
	cfg := s.plan.config(s.e.seed, rate, probeWindow)
	cfg.KeepRequests = true
	run, err := s.do(nil, cfg)
	if err != nil {
		return false, err
	}
	c := countsOf(run.res)
	lat, _ := latencies(run.res)
	p99, _, ok := tailQuantile(lat, 0.99)
	return c.bad() == 0 && ok && sim.Duration(p99) <= sloP99 && run.drainLag() <= maxDrainLag, nil
}

// histMeanLatency is the completed requests' mean latency as the plane's
// own registry recorded it (the histograms keep exact sums).
func histMeanLatency(res *serve.Result) (sum int64, n uint64) {
	for _, t := range res.Tenants {
		h := res.Metrics.Histograms["serve.tenant."+t.Name+".latency_ns"]
		sum += h.Sum
		n += h.Count
	}
	return sum, n
}

// reference runs the frozen reference rate for referenceWindow with
// per-request records; with record set it also checks the run against the
// SLO and counts it into attempted/failed.
func (s *serveSession) reference(record bool) (*serveRun, []int64, []reqTimes, error) {
	cfg := s.plan.config(s.e.seed, s.plan.refRate, referenceWindow)
	cfg.KeepRequests = true
	run, err := s.do(nil, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	lat, times := latencies(run.res)
	if !record {
		return run, lat, times, nil
	}
	res := s.e.res
	c := countsOf(run.res)
	p99, beyond, ok := tailQuantile(lat, 0.99)
	res.expect(c.bad() == 0, "reference rate loses nothing",
		"offered %d shed %d failed %d timeouts %d duplicates %d", c.offered, c.shed, c.failed, c.timeouts, c.duplicates)
	res.expect(ok && sim.Duration(p99) <= sloP99, "reference rate meets the SLO",
		"exact p99 %dns over %d samples (%d beyond) against %v", p99, len(lat), beyond, sloP99)
	res.expect(run.drainLag() <= maxDrainLag, "reference rate leaves no backlog",
		"drain lag %v against %v", run.drainLag(), maxDrainLag)
	res.Attempted += c.offered
	res.Failed += c.bad()
	return run, lat, times, nil
}

// virtualSet computes every virtual-clock metric of a serving workload.
// Called twice per traced run; the two maps must be identical. Only the
// first call records checks and notes.
func (s *serveSession) virtualSet(first bool) (map[string]float64, error) {
	plan, res := s.plan, s.e.res
	out := make(map[string]float64)

	var probeErr error
	perTenant, probes := searchCapacity(func(rate float64) bool {
		ok, err := s.sustains(rate)
		if err != nil && probeErr == nil {
			probeErr = err
		}
		return ok
	})
	if probeErr != nil {
		return nil, probeErr
	}
	out["serve.capacity_vrps"] = perTenant * float64(plan.tenants)

	ref, lat, times, err := s.reference(first)
	if err != nil {
		return nil, err
	}
	p50, _ := quantile(lat, 0.50)
	p99, beyond := quantile(lat, 0.99)
	out["serve.vp50_ns"] = float64(p50)
	out["serve.vp99_ns"] = float64(p99)
	out["serve.drain_lag_vns"] = float64(ref.drainLag())
	c := countsOf(ref.res)
	out["serve.replays"] = float64(c.replayed)
	out["serve.retries"] = float64(c.retried)
	out["serve.avg_batch"] = ref.res.AvgBatch()
	if c.completed > 0 {
		out["serve.batches_per_op"] = float64(ref.res.Batches) / float64(c.completed)
	}

	// The registry's bucketed p99 against the exact one, worst tenant.
	byTenant := make(map[string][]int64)
	for _, r := range ref.res.Requests {
		if r.Err == nil {
			byTenant[r.Tenant] = append(byTenant[r.Tenant], int64(r.Latency()))
		}
	}
	var worst float64
	for _, t := range ref.res.Tenants {
		tl := byTenant[t.Name]
		slices.Sort(tl)
		if exact, _ := quantile(tl, 0.99); exact > 0 {
			worst = math.Max(worst, math.Abs(t.P99NS-float64(exact))/float64(exact))
		}
	}
	out["metrics.hist_p99_rel_err"] = worst

	if plan.faults {
		fault := int64(ref.start) + int64(crashAt(referenceWindow))
		ns, inflight := recoveryNS(times, fault)
		out["serve.recovery_vms"] = float64(ns) / 1e6
		rehomes := 0
		for _, t := range ref.res.Tenants {
			if t.Rehomed {
				rehomes++
			}
		}
		out["cluster.rehomes"] = float64(rehomes)
		out["cluster.split_brain"] = float64(ref.res.SplitBrain)
		if first {
			res.note("recovery: %d requests in flight at the node crash", inflight)
		}
	}
	if el := ref.res.Elastic; el != nil {
		out["elastic.migrations"] = float64(el.Migrations)
		out["elastic.interrupted"] = float64(el.Interrupted)
		out["elastic.replayed"] = float64(el.Replayed)
	}
	m := ref.res.Metrics
	if hits, misses := m.Counters["attest.tickets.hits"], m.Counters["attest.tickets.misses"]; hits+misses > 0 {
		out["attest.ticket_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if hits, misses := m.Counters["attest.verify.hits"], m.Counters["attest.verify.misses"]; hits+misses > 0 {
		out["attest.verify_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out["attest.resume_vns"] = m.Histograms["serve.attest.resume_ns"].Mean()
	out["attest.cold_vns"] = m.Histograms["serve.attest.cold_ns"].Mean()

	over, err := s.do(nil, plan.config(s.e.seed, plan.overloadRate, probeWindow))
	if err != nil {
		return nil, err
	}
	oc := countsOf(over.res)
	out["serve.overload_goodput_vrps"] = float64(oc.completed) / (float64(probeWindow) / 1e9)
	if oc.offered > 0 {
		out["serve.shed_frac_overload"] = float64(oc.shed) / float64(oc.offered)
	}
	if first {
		res.note("capacity: %d probes of %v, %.0f req/s per tenant x %d tenants", probes, probeWindow, perTenant, plan.tenants)
		res.note("quantiles: %d samples at %.0f req/s per tenant over %v, %d beyond p99", len(lat), plan.refRate, referenceWindow, beyond)
	}
	return out, nil
}

// timedConfig is one host-clock slice: the reference rate, no per-request
// records, a window sized to the plan.
func (p *servePlan) timedConfig(seed int64) serve.Config {
	return p.config(seed, p.refRate, p.timedWindow)
}

// run is the workload body for all three serving plans.
func (p *servePlan) run(e *env) error {
	s := &serveSession{e: e, plan: p}
	res := e.res

	// Warm-up: one short untimed run so lazy initialisation (kernel
	// registries, graph construction, heap growth) is paid before timing.
	if _, err := s.do(nil, p.config(e.seed, p.refRate, 20*sim.Millisecond)); err != nil {
		return err
	}

	if e.tr == nil {
		samples, err := e.slices(func(int) (hostSample, error) {
			run, err := s.do(nil, p.timedConfig(e.seed))
			if err != nil {
				return hostSample{}, err
			}
			c := countsOf(run.res)
			res.Attempted += c.offered
			res.Failed += c.bad()
			return run.timed, nil
		})
		if err != nil {
			return err
		}
		res.setHostMetrics(samples)

		ref, lat, _, err := s.reference(true)
		if err != nil {
			return err
		}
		res.set("virt_ns_per_op", meanInt(lat))

		// The same Config without per-request records must account
		// identically; its registry sums double as the second in-process
		// run the determinism check needs.
		cfg := p.config(e.seed, p.refRate, referenceWindow)
		again, err := s.do(nil, cfg)
		if err != nil {
			return err
		}
		res.expect(countsOf(ref.res) == countsOf(again.res) && ref.res.Batches == again.res.Batches &&
			ref.res.DrainedAt == again.res.DrainedAt,
			"KeepRequests on and off account identically", "%+v against %+v", countsOf(ref.res), countsOf(again.res))
		var exact int64
		for _, l := range lat {
			exact += l
		}
		sum, n := histMeanLatency(again.res)
		res.expect(sum == exact && n == uint64(len(lat)), "virtual metrics repeat exactly in-process",
			"latency sum %d over %d against %d over %d", exact, len(lat), sum, n)
	} else {
		if err := p.traced(s); err != nil {
			return err
		}
	}

	res.setSetup(s.setups)
	res.expect(len(s.broken) == 0, "conservation on every serve run", "%d runs, violations: %v", s.runs, s.broken)
	return nil
}

// traced is the per-layer run: untraced and traced slices of the timed
// Config (their ratio is the tracing overhead; a traced slice's counter
// deltas are the per-op layer counts), then the virtual set twice.
func (p *servePlan) traced(s *serveSession) error {
	e, res := s.e, s.e.res

	cfg := p.timedConfig(e.seed)
	// Only the executed plane decomposes requests into stages; the sharded
	// plane refuses Config.Trace.
	cfg.Trace = cfg.Shards < 2

	// Untraced and traced slices, interleaved so both see the same machine;
	// each side is scored by its fastest slice.
	var plain, traced *serveRun
	for i := 0; i < tracePairs; i++ {
		metrics.Default.Disable()
		a, err := s.do(nil, p.timedConfig(e.seed))
		if err != nil {
			return err
		}
		metrics.Default.Enable()
		b, err := s.do(e.tr, cfg)
		if err != nil {
			return err
		}
		for _, r := range []*serveRun{a, b} {
			c := countsOf(r.res)
			res.Attempted += c.offered
			res.Failed += c.bad()
		}
		if plain == nil || a.timed.ns < plain.timed.ns {
			plain = a
		}
		if traced == nil || b.timed.ns < traced.timed.ns {
			traced = b
		}
	}
	res.set("trace.overhead_frac", float64(traced.timed.ns)/float64(plain.timed.ns)-1)
	if plain.res.Batches > 0 {
		res.set("serve.host_ns_per_batch", float64(plain.timed.ns)/float64(plain.res.Batches))
	}
	setLayerCounts(res, traced.counters, traced.timed)

	if cfg.Trace {
		var total, queue, batch, exec sim.Duration
		for _, ta := range otrace.Attribute(traced.res.Traces).Tenants {
			total += ta.TotalLatency
			for _, st := range ta.Stages {
				switch st.Stage {
				case otrace.StageBatch:
					batch += st.Total
				case otrace.StageExec, otrace.StageBackoff:
					exec += st.Total
				default: // queue, replica-queue, requeue: all waiting
					queue += st.Total
				}
			}
		}
		if total > 0 {
			res.set("serve.stage_queue_share", float64(queue)/float64(total))
			res.set("serve.stage_batch_share", float64(batch)/float64(total))
			res.set("serve.stage_execute_share", float64(exec)/float64(total))
		}
		res.expect(queue+batch+exec == total, "stage attribution is conservative",
			"stages sum to %v of %v total latency", queue+batch+exec, total)
	}

	first, err := s.virtualSet(true)
	if err != nil {
		return err
	}
	second, err := s.virtualSet(false)
	if err != nil {
		return err
	}
	res.expect(sameMetrics(first, second), "virtual metrics repeat exactly in-process",
		"two computations of %d virtual metrics", len(first))
	for name, v := range first {
		res.set(name, v)
	}
	return nil
}

// sameMetrics reports whether two metric maps are bit-for-bit equal.
func sameMetrics(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
