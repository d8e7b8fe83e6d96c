package main

import (
	"fmt"
	"time"

	"cronus/internal/attest"
	"cronus/internal/cluster"
	"cronus/internal/core"
	"cronus/internal/elastic"
	"cronus/internal/gpu"
	"cronus/internal/hw"
	"cronus/internal/metrics"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// setLayerCounts turns the metrics.Default counter growth over a timed
// section into the per-op layer counts, and reads the two high-water gauges.
func setLayerCounts(res *result, d map[string]uint64, timed hostSample) {
	if timed.ops == 0 {
		return
	}
	ops := float64(timed.ops)
	per := func(counter string) float64 { return float64(d[counter]) / ops }

	res.set("sim.events_per_op", per("sim.events.dispatched"))
	if ev := d["sim.events.dispatched"]; ev > 0 {
		res.set("sim.host_ns_per_event", float64(timed.ns)/float64(ev))
	}
	res.set("sim.procs_spawned_per_op", per("sim.procs.spawned"))
	res.set("hw.tzasc_denials", float64(d["hw.tzasc.denials"]))
	if hits, misses := d["spm.tlb.hits"], d["spm.tlb.misses"]; hits+misses > 0 {
		res.set("spm.tlb_hit_ratio", float64(hits)/float64(hits+misses))
	}
	res.set("spm.world_switches_per_op", per("spm.world_switches"))
	res.set("spm.s2_switches_per_op", per("spm.context_switches_s2"))
	res.set("spm.traps_per_op", per("spm.traps.handled"))
	res.set("srpc.calls_per_op", per("srpc.calls"))
	res.set("srpc.bytes_per_op", per("srpc.bytes_moved"))
	if calls := d["srpc.calls"]; calls > 0 {
		res.set("srpc.sync_waits_per_call", float64(d["srpc.sync_waits"])/float64(calls))
	}
	res.set("srpc.doorbell_fallbacks", float64(d["srpc.doorbell.fallback"]))
	res.set("mos.mecalls_streamed_per_op", per("mos.mecalls.streamed"))
	res.set("gpu.launches_per_op", per("driver.gpu.kernel_launches"))
	res.set("gpu.htod_bytes_per_op", per("driver.gpu.htod_bytes"))
	res.set("npu.runs_per_op", per("driver.npu.runs"))

	// Gauges and histograms are read whole: the traced run resets the
	// registry when it starts, so they cover this workload only.
	snap := metrics.Default.Snapshot()
	res.set("sim.queue_depth_max", float64(snap.Gauges["sim.queue.depth"].Max))
	res.set("srpc.ring_occupancy_max", float64(snap.Gauges["srpc.ring.occupancy_slots"].Max))
	res.set("spm.failover_vns", snap.Histograms["spm.failover.latency_ns"].Mean())
}

// runKernel runs body as the only process of a fresh simulation.
func runKernel(body func(p *sim.Proc) error) error {
	k := sim.NewKernel()
	var bodyErr error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		bodyErr = body(p)
	})
	err := k.Run()
	k.Shutdown()
	if err != nil {
		return err
	}
	return bodyErr
}

// medianOf runs one (a fresh-simulation measurement) layerBatches times.
func medianOf(one func() (float64, error)) (float64, error) {
	xs := make([]float64, layerBatches)
	for i := range xs {
		v, err := one()
		if err != nil {
			return 0, err
		}
		xs[i] = v
	}
	return median(xs), nil
}

// runLayerLoops times tight loops over each layer's public entry points —
// the per-layer host budget. The loops are the same on every workload, so a
// layer's number can be set against the share of the workload that layer
// carries (README, "Layers").
func runLayerLoops(tr *tracer, res *result) error {
	steps := []struct {
		name string
		run  func(*result) error
	}{
		{"layers.sim", simLoops},
		{"layers.hw", hwLoops},
		{"layers.spm", spmLoops},
		{"layers.core+srpc", coreLoops},
		{"layers.cluster", clusterLoops},
		{"layers.attest", attestLoops},
		{"layers.elastic", elasticLoops},
	}
	for _, s := range steps {
		if err := tr.in(s.name, func() error { return s.run(res) }); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

func simLoops(res *result) error {
	const n = 50000
	var sleeps []hostSample
	for i := 0; i < layerBatches; i++ {
		k := sim.NewKernel()
		k.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		s, err := measure(func() (uint64, error) { return n, k.Run() })
		k.Shutdown()
		if err != nil {
			return err
		}
		sleeps = append(sleeps, s)
	}
	var ns, allocs []float64
	for _, s := range sleeps {
		ns = append(ns, float64(s.ns)/n)
		allocs = append(allocs, float64(s.mallocs)/n)
	}
	res.set("sim.sleep_host_ns", median(ns))
	res.set("sim.sleep_allocs", median(allocs))

	rt, err := medianOf(func() (float64, error) {
		k := sim.NewKernel()
		req := sim.NewMailbox[int](k, "req")
		rsp := sim.NewMailbox[int](k, "rsp")
		k.Spawn("server", func(p *sim.Proc) {
			for {
				v, ok := req.Recv(p)
				if !ok {
					return
				}
				rsp.Send(v)
			}
		})
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				req.Send(i)
				rsp.Recv(p)
			}
			req.Close()
		})
		start := time.Now()
		err := k.Run()
		ns := float64(time.Since(start).Nanoseconds()) / n
		k.Shutdown()
		return ns, err
	})
	if err != nil {
		return err
	}
	res.set("sim.mailbox_rt_host_ns", rt)

	// The sharded engine on the serving hot path's shape: eight partition
	// workers burning local sleeps, four device shards plus the host shard.
	sharded := func(parallel bool) (float64, error) {
		const parts, shards, perPart = 8, 4, 12500
		hop := 25 * sim.Microsecond
		return medianOf(func() (float64, error) {
			k := sim.NewKernel()
			k.EnableSharding(shards+1, hop)
			done := sim.NewPort[int](k, 0, "done", hop)
			for i := 0; i < parts; i++ {
				k.SpawnOn(1+i%shards, uint64(100+i), fmt.Sprintf("worker-%d", i), func(p *sim.Proc) {
					for n := 0; n < perPart; n++ {
						p.Sleep(2 * sim.Microsecond)
					}
					done.Send(p, 1)
				})
			}
			k.SpawnOn(0, 1, "host", func(p *sim.Proc) {
				if parallel {
					k.Parallelize()
				}
				for n := 0; n < parts; n++ {
					done.Recv(p)
				}
				p.Sequentialize()
			})
			start := time.Now()
			err := k.Run()
			ns := float64(time.Since(start).Nanoseconds()) / (parts * perPart)
			k.Shutdown()
			return ns, err
		})
	}
	seq, err := sharded(false)
	if err != nil {
		return err
	}
	par, err := sharded(true)
	if err != nil {
		return err
	}
	res.set("sim.sharded_event_host_ns", seq)
	if par > 0 {
		res.set("sim.parallel_speedup", seq/par)
	}
	return nil
}

func hwLoops(res *result) error {
	const n = 1 << 20
	var failed error
	fail := func(err error) {
		if failed == nil {
			failed = err
		}
	}

	as := hw.NewAddrSpace("bench")
	as.MapRange(0, 1000, 512, hw.PermRW)
	i := 0
	res.set("hw.translate_host_ns", medianLoopNS(n, func() {
		if _, f := as.Translate(uint64(i)&511, hw.PermW); f != nil {
			fail(fmt.Errorf("translate fault: %v", f))
		}
		i++
	}))

	tz := hw.NewTZASC()
	for r := 0; r < 16; r++ {
		if err := tz.SetRegion(r, hw.PA(uint64(r)*2<<20), 1<<20, r%2 == 0); err != nil {
			return err
		}
	}
	tz.Lock()
	i = 0
	res.set("hw.tzasc_check_host_ns", medianLoopNS(n, func() {
		if err := tz.Check(hw.SecureWorld, hw.PA(uint64(i%16)*2<<20)); err != nil {
			fail(err)
		}
		i++
	}))

	smmu := hw.NewSMMU()
	smmu.Stream("gpu0").MapRange(0, 2000, 256, hw.PermRW)
	i = 0
	res.set("hw.smmu_translate_host_ns", medianLoopNS(n, func() {
		if _, f := smmu.Translate("gpu0", uint64(i%256)<<hw.PageShift, hw.PermR); f != nil {
			fail(fmt.Errorf("smmu fault: %v", f))
		}
		i++
	}))

	m := hw.NewMachine(hw.Config{NormalMemBytes: 1 << 20, SecureMemBytes: 1 << 20})
	pa, err := m.Mem.AllocPages("secure", 1)
	if err != nil {
		return err
	}
	page := make([]byte, hw.PageSize)
	res.set("hw.physmem_write4k_host_ns", medianLoopNS(n/4, func() {
		if err := m.Mem.Write(hw.SecureWorld, pa, page); err != nil {
			fail(err)
		}
	}))
	return failed
}

func spmLoops(res *result) error {
	k := sim.NewKernel()
	m := hw.NewMachine(hw.Config{NormalMemBytes: 4 << 20, SecureMemBytes: 64 << 20})
	if err := m.Fuses.Burn("platform-rot", []byte("bench")); err != nil {
		return err
	}
	s, err := spm.Boot(k, m, sim.DefaultCosts())
	if err != nil {
		return err
	}
	part, err := s.CreatePartition("bench", "", []byte("img"))
	if err != nil {
		return err
	}
	ipa, err := s.AllocMem(part, 16)
	if err != nil {
		return err
	}
	view := s.NewView(part, nil)
	var failed error
	for _, c := range []struct {
		metric string
		size   int
		n      int
	}{
		{"spm.view_read8_host_ns", 8, 1 << 20},
		{"spm.view_read4k_host_ns", hw.PageSize, 1 << 18},
		{"spm.view_read64k_host_ns", 16 * hw.PageSize, 1 << 14},
	} {
		buf := make([]byte, c.size)
		res.set(c.metric, medianLoopNS(c.n, func() {
			// A nil proc is the warm path: TLB hits charge no virtual time.
			if err := view.Read(nil, ipa, buf); err != nil && failed == nil {
				failed = err
			}
		}))
	}
	return failed
}

// coreLoops times boot, session and stream set-up, then the three sRPC call
// shapes on the established stream.
func coreLoops(res *result) error {
	var boot, sess, open []float64
	for i := 0; i < layerBatches; i++ {
		last := i == layerBatches-1
		err := runKernel(func(p *sim.Proc) error {
			t0 := time.Now()
			pl, err := core.BuildPlatform(p, core.DefaultConfig())
			if err != nil {
				return err
			}
			t1 := time.Now()
			s, err := pl.NewSession(p, "layers")
			if err != nil {
				return err
			}
			t2 := time.Now()
			conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("scale"), ZCPayload: 4096})
			if err != nil {
				return err
			}
			t3 := time.Now()
			boot = append(boot, float64(t1.Sub(t0).Nanoseconds()))
			sess = append(sess, float64(t2.Sub(t1).Nanoseconds()))
			open = append(open, float64(t3.Sub(t2).Nanoseconds()))
			if last {
				if err := srpcLoops(res, p, conn); err != nil {
					return err
				}
			}
			return conn.Close(p)
		})
		if err != nil {
			return err
		}
	}
	res.set("core.platform_boot_host_ns", median(boot))
	res.set("core.session_open_host_ns", median(sess))
	res.set("core.cuda_open_host_ns", median(open))
	return nil
}

func srpcLoops(res *result, p *sim.Proc, conn *core.CUDAConn) error {
	const n = 2000
	ptr, err := conn.MemAlloc(p, 4096)
	if err != nil {
		return err
	}
	payload := make([]byte, 256)
	if err := conn.HtoD(p, ptr, payload); err != nil {
		return err
	}

	// batch runs n calls (plus a closing Sync) as one timed sample.
	batch := func(call func() error) (hostSample, sim.Duration, error) {
		v0 := p.Now()
		s, err := measure(func() (uint64, error) {
			for i := 0; i < n; i++ {
				if err := call(); err != nil {
					return 0, err
				}
			}
			return n, conn.Sync(p)
		})
		return s, sim.Duration(p.Now() - v0), err
	}
	shape := func(call func() error) (ns, allocs, vns float64, err error) {
		var nss, allocss []float64
		for i := 0; i <= layerBatches; i++ {
			s, v, err := batch(call)
			if err != nil {
				return 0, 0, 0, err
			}
			if i == 0 {
				continue // warm-up batch
			}
			nss = append(nss, float64(s.ns)/n)
			allocss = append(allocss, float64(s.mallocs)/n)
			vns = float64(v) / n
		}
		return median(nss), median(allocss), vns, nil
	}

	syncCall := func() error {
		_, err := conn.DtoH(p, ptr, 8)
		return err
	}
	ns, allocs, vns, err := shape(syncCall)
	if err != nil {
		return err
	}
	// Simulator events per call come from the registry, which the timed
	// batches run without; one more batch is counted, not timed.
	metrics.Default.Enable()
	pre := metrics.Default.Snapshot()
	_, _, err = batch(syncCall)
	events := metrics.Default.Snapshot().CounterDelta(pre, "sim.events.dispatched")
	metrics.Default.Disable()
	if err != nil {
		return err
	}
	res.set("srpc.sync_call_host_ns", ns)
	res.set("srpc.sync_call_allocs", allocs)
	res.set("srpc.sync_call_vns", vns)
	res.set("srpc.sync_call_events", float64(events)/n)

	ns, _, _, err = shape(func() error { return conn.HtoD(p, ptr, payload) })
	if err != nil {
		return err
	}
	res.set("srpc.stream_call_host_ns", ns)

	ns, _, _, err = shape(func() error {
		return conn.ExecZC(p, ptr, payload, "scale", gpu.Dim{1, 1, 1}, nil, ptr, uint64(gpu.FloatBits(1)))
	})
	if err != nil {
		return err
	}
	res.set("srpc.zc_call_host_ns", ns)
	return nil
}

func clusterLoops(res *result) error {
	pcfg := core.DefaultConfig()
	pcfg.GPUs = 4
	pcfg.NPUs = 0
	boot, err := medianOf(func() (float64, error) {
		var ns float64
		err := runKernel(func(p *sim.Proc) error {
			start := time.Now()
			_, err := cluster.BootNodes(p, 2, pcfg)
			ns = float64(time.Since(start).Nanoseconds())
			return err
		})
		return ns, err
	})
	if err != nil {
		return err
	}
	res.set("cluster.boot_nodes_host_ns", boot)

	ring, err := cluster.NewRing(2, 64, 17)
	if err != nil {
		return err
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("t%d", i)
	}
	res.set("cluster.ring_assign_host_ns", medianLoopNS(20000, func() { ring.Assign(keys, 4) }))
	return nil
}

func attestLoops(res *result) error {
	reg := metrics.NewRegistry()
	cache := attest.NewTicketCache([]byte("bench"), 1024, 5*sim.Millisecond, reg)
	meas := attest.Measure([]byte("mos image"))
	cache.Mint("t0", meas, 1, 0)
	var failed error
	res.set("attest.ticket_resume_host_ns", medianLoopNS(100000, func() {
		if ok, err := cache.Resume("t0", meas, 1, 1); (err != nil || !ok) && failed == nil {
			failed = fmt.Errorf("ticket resume: ok=%v err=%v", ok, err)
		}
	}))
	if failed != nil {
		return failed
	}

	// The cold path is a full remote attestation: report build, signature
	// chain and measurement checks.
	var cold float64
	err := runKernel(func(p *sim.Proc) error {
		pl, err := core.BuildPlatform(p, core.DefaultConfig())
		if err != nil {
			return err
		}
		s, err := pl.NewSession(p, "attest")
		if err != nil {
			return err
		}
		nonce := uint64(0)
		var attErr error
		cold = medianLoopNS(20, func() {
			nonce++
			if err := s.Attest(p, nonce); err != nil && attErr == nil {
				attErr = err
			}
		})
		return attErr
	})
	if err != nil {
		return err
	}
	res.set("attest.cold_verify_host_ns", cold)
	return nil
}

func elasticLoops(res *result) error {
	ctl := elastic.NewController(elastic.Config{})
	now := sim.Time(0)
	res.set("elastic.decide_host_ns", medianLoopNS(1<<20, func() {
		now += sim.Time(250 * sim.Microsecond)
		ctl.Decide(now, elastic.Signals{QueueDepth: int(now) % 128, ShedRate: 0.01})
	}))
	return nil
}
