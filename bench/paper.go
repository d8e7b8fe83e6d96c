package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/experiments"
	"cronus/internal/gpu"
	"cronus/internal/metrics"
	"cronus/internal/sim"
)

// paperInputs are the parameters of a pass the paper does not fix — how long
// Fig 11a observes and how many calls the sRPC microbenchmark issues — drawn
// from the seed. Everything the paper does fix (the Rodinia suite, Fig 8 at
// 2 iterations of batch 16, 256 B sRPC payloads) is constant.
type paperInputs struct {
	fig11aWindow sim.Duration
	srpcCalls    int
}

func paperInputsFor(seed int64) paperInputs {
	rng := rand.New(rand.NewSource(seed))
	return paperInputs{
		fig11aWindow: 12*sim.Millisecond + sim.Duration(rng.Intn(250))*sim.Microsecond,
		srpcCalls:    200 + rng.Intn(16),
	}
}

// paperPass is what one pass over the figures produced: the virtual-clock
// results, the paper-shape checks, and each figure's host-clock sample.
type paperPass struct {
	virtual map[string]float64 // paper.* metrics and virt_ns_per_op
	shapes  []check
	figures []hostSample // one per figure, in pass order
}

// total is the pass as one host sample: the sum over its figures, one op.
func (p *paperPass) total() hostSample {
	s := hostSample{ops: 1}
	for _, f := range p.figures {
		s.ns += f.ns
		s.mallocs += f.mallocs
		s.bytes += f.bytes
	}
	return s
}

// paperFigures runs one pass over Table II, Fig 7-11, the sRPC
// microbenchmark and the recovery comparison: the reproduction itself.
func paperFigures(e *env, tr *tracer, in paperInputs) (*paperPass, error) {
	pass := &paperPass{virtual: make(map[string]float64)}
	shape := func(ok bool, name, format string, args ...any) {
		pass.shapes = append(pass.shapes, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	var cronusNS sim.Duration // virtual time of every job-bound CRONUS row
	var overheads []float64   // CRONUS over native, Fig 7 + Fig 8 rows, percent
	hixSlowest := true
	// gpuRow folds one Fig 7 / Fig 8 row: its CRONUS time and overhead, and
	// whether HIX is the slowest of the four systems on it.
	gpuRow := func(times map[baseline.System]sim.Duration, overheadPct float64) {
		cronusNS += times[baseline.CRONUS]
		overheads = append(overheads, overheadPct)
		for _, d := range times {
			hixSlowest = hixSlowest && times[baseline.HIX] >= d
		}
	}

	figures := []struct {
		name string
		run  func() error
	}{
		{"table2", func() error {
			_, err := experiments.Table2()
			return err
		}},
		{"fig7", func() error {
			rows, err := experiments.Figure7()
			for _, r := range rows {
				gpuRow(r.Times, 100*(r.Normalized[baseline.CRONUS]-1))
			}
			return err
		}},
		{"fig8", func() error {
			rows, err := experiments.Figure8(2, 16)
			for _, r := range rows {
				gpuRow(r.Times, 100*r.Overhead[baseline.CRONUS])
			}
			if err != nil {
				return err
			}
			var mean, worst float64
			for _, o := range overheads {
				mean += o / float64(len(overheads))
				worst = math.Max(worst, o)
			}
			pass.virtual["paper.cronus_mean_overhead_pct"] = mean
			pass.virtual["paper.cronus_worst_overhead_pct"] = worst
			shape(worst <= paperOverheadLimitPct, "paper: CRONUS worst overhead within 7.1%",
				"worst %.3f%%, mean %.3f%% over %d Fig 7 + Fig 8 rows", worst, mean, len(overheads))
			shape(hixSlowest, "paper: HIX slowest on every Fig 7 + Fig 8 row", "%d rows", len(overheads))
			return nil
		}},
		{"fig9", func() error {
			r, err := experiments.Figure9()
			if err != nil {
				return err
			}
			pass.virtual["paper.recovery_vms"] = r.MOSDowntime.Milliseconds()
			shape(r.MOSDowntime > 0 && r.MOSDowntime < r.RebootTime, "paper: mOS recovery beats machine reboot",
				"mOS restart %v against reboot %v", r.MOSDowntime, r.RebootTime)
			return nil
		}},
		{"fig10a", func() error {
			rows, err := experiments.Figure10a()
			for _, r := range rows {
				cronusNS += r.Times[baseline.CRONUS]
			}
			return err
		}},
		{"fig10b", func() error {
			rows, err := experiments.Figure10b()
			for _, r := range rows {
				cronusNS += r.NPULatency[baseline.CRONUS]
			}
			return err
		}},
		{"fig11a", func() error {
			rows, err := experiments.Figure11a(in.fig11aWindow)
			var peak float64
			for _, r := range rows {
				peak = math.Max(peak, r.SpatialGainPct)
			}
			pass.virtual["paper.spatial_gain_pct"] = peak
			shape(peak > 0, "paper: spatial sharing gains over temporal", "peak gain %.2f%%", peak)
			return err
		}},
		{"fig11b", func() error {
			rows, err := experiments.Figure11b(3)
			perStep := make(map[int]map[experiments.ShareMode]sim.Duration)
			for _, r := range rows {
				if perStep[r.GPUs] == nil {
					perStep[r.GPUs] = make(map[experiments.ShareMode]sim.Duration)
				}
				perStep[r.GPUs][r.Mode] = r.PerStep
			}
			ordered, compared := true, 0
			for _, m := range perStep {
				if len(m) < 3 {
					continue // one GPU exchanges nothing
				}
				compared++
				ordered = ordered && m[experiments.ShareP2P] < m[experiments.ShareSecureMem] &&
					m[experiments.ShareSecureMem] < m[experiments.ShareEncrypted]
			}
			shape(ordered && compared > 0, "paper: P2P < secure-mem < encrypted", "%d multi-GPU configurations", compared)
			return err
		}},
		{"srpc-micro", func() error {
			rows, err := experiments.SRPCMicro(in.srpcCalls, 256)
			for _, r := range rows {
				if r.Mechanism == "sRPC streaming" {
					cronusNS += r.Total
					pass.virtual["paper.srpc_stream_vns_per_call"] = float64(r.Total) / float64(r.Calls)
				}
			}
			return err
		}},
		{"recovery", func() error {
			rows, err := experiments.RecoveryTimes()
			var cronus, reboot sim.Duration
			for _, r := range rows {
				switch r.System {
				case baseline.CRONUS:
					cronus = r.Recovery
				case baseline.TrustZone:
					reboot = r.Recovery
				}
			}
			shape(cronus > 0 && cronus < reboot, "paper: partition restart beats monolithic reboot",
				"CRONUS %v against TrustZone %v", cronus, reboot)
			return err
		}},
	}
	for _, fig := range figures {
		tr.begin(fig.name)
		s, err := e.measureCalibrated(func() (uint64, error) { return 1, fig.run() })
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fig.name, err)
		}
		pass.figures = append(pass.figures, s)
	}
	pass.virtual["virt_ns_per_op"] = float64(cronusNS)
	return pass, nil
}

// paperBoot is the set-up a CRONUS application pays before its first
// mECall: platform boot, session enclave, remote attestation, CUDA stream.
func paperBoot(tr *tracer) (time.Duration, error) {
	start := time.Now()
	err := tr.in("boot", func() error {
		return core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			s, err := pl.NewSession(p, "bench")
			if err != nil {
				return err
			}
			if err := s.Attest(p, 1); err != nil {
				return err
			}
			conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add"), RingPages: 65})
			if err != nil {
				return err
			}
			return conn.Close(p)
		})
	})
	return time.Since(start), err
}

const paperBoots = minSlices

// paperMinPasses is the fewest timed passes a run makes. A pass is six
// seconds, most of it inside one Fig 8 call, so it cannot be cut into short
// slices the way the other workloads are.
const paperMinPasses = 3

// runPaperFigs is the paper_figs workload: op = one pass over the figures.
func runPaperFigs(e *env) error {
	res := e.res
	in := paperInputsFor(e.seed)
	res.note("inputs: fig11a window %v, %d sRPC calls", in.fig11aWindow, in.srpcCalls)

	// Warm-up: the cheap figures once, so registries and the heap are
	// settled before the first timed pass (Fig 8 alone is 70% of a pass and
	// shares its code with Fig 11).
	for _, f := range []func() error{
		func() error { _, err := experiments.Figure7(); return err },
		func() error { _, err := experiments.Figure11b(1); return err },
		func() error { _, err := experiments.SRPCMicro(in.srpcCalls, 256); return err },
	} {
		if err := f(); err != nil {
			return err
		}
	}

	var setups []time.Duration
	for i := 0; i < paperBoots; i++ {
		d, err := paperBoot(nil)
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	res.setSetup(setups)

	var passes []*paperPass
	onePass := func(tr *tracer) (*paperPass, error) {
		pass, err := paperFigures(e, tr, in)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass)
		res.Attempted += uint64(len(pass.figures))
		return pass, nil
	}

	if e.tr == nil {
		min := paperMinPasses
		if e.minRepeats > 0 {
			min = e.minRepeats
		}
		start := time.Now()
		for i := 0; i < min || time.Since(start).Seconds() < e.seconds; i++ {
			if _, err := onePass(nil); err != nil {
				return err
			}
		}
		samples := make([]hostSample, len(passes))
		for i, p := range passes {
			samples[i] = p.total()
		}
		res.setHostMetrics(samples)
		res.set("virt_ns_per_op", passes[0].virtual["virt_ns_per_op"])
	} else {
		metrics.Default.Disable()
		plain, err := onePass(nil)
		if err != nil {
			return err
		}
		metrics.Default.Enable()
		if _, err := paperBoot(e.tr); err != nil {
			return err
		}
		e.tr.begin("pass")
		traced, err := onePass(e.tr)
		deltas := e.tr.end()
		if err != nil {
			return err
		}
		res.set("trace.overhead_frac", float64(traced.total().ns)/float64(plain.total().ns)-1)
		setLayerCounts(res, deltas, traced.total())
		for name, v := range passes[0].virtual {
			if name != "virt_ns_per_op" {
				res.set(name, v)
			}
		}
	}

	res.Checks = append(res.Checks, passes[0].shapes...)
	same := true
	for _, p := range passes[1:] {
		same = same && sameMetrics(passes[0].virtual, p.virtual)
	}
	res.expect(same && len(passes) >= 2, "virtual metrics repeat exactly in-process",
		"%d passes of %d virtual metrics", len(passes), len(passes[0].virtual))
	return nil
}
