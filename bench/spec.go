package main

import "cronus/internal/sim"

// A metric is on exactly one clock. Virtual is the model's answer: it is a
// pure function of the seed and repeats exactly. Host is what the simulator
// costs to produce it and carries the machine's noise.
const (
	clockHost    = "host"
	clockVirtual = "virtual"
)

// metricSpec declares one emitted metric. The end-to-end list and the
// per-layer list below are the program's whole output vocabulary;
// BENCHMARK.json repeats them and the schema test holds the two together.
type metricSpec struct {
	Name   string
	Clock  string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only
}

// endToEnd is emitted by every workload on the untraced run. `op` is the
// workload's unit of useful work (README, "Workloads").
var endToEnd = []metricSpec{
	{Name: "setup_s", Clock: clockHost, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_ns_per_op", Clock: clockHost, Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "host_allocs_per_op", Clock: clockHost, Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "host_bytes_per_op", Clock: clockHost, Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "virt_ns_per_op", Clock: clockVirtual, Unit: "ns", Better: "lower", Bound: 0.02},
}

// perLayer is emitted by every workload on the traced run; a metric whose
// layer the workload never enters reads 0.
var perLayer = []metricSpec{
	{Name: "sim.events_per_op", Layer: "sim", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "sim.host_ns_per_event", Layer: "sim", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "sim.procs_spawned_per_op", Layer: "sim", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "sim.queue_depth_max", Layer: "sim", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "sim.sleep_host_ns", Layer: "sim", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "sim.sleep_allocs", Layer: "sim", Clock: clockHost, Unit: "count", Better: "lower"},
	{Name: "sim.mailbox_rt_host_ns", Layer: "sim", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "sim.sharded_event_host_ns", Layer: "sim", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "sim.parallel_speedup", Layer: "sim", Clock: clockHost, Unit: "x", Better: "higher"},

	{Name: "hw.translate_host_ns", Layer: "hw", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "hw.tzasc_check_host_ns", Layer: "hw", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "hw.smmu_translate_host_ns", Layer: "hw", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "hw.physmem_write4k_host_ns", Layer: "hw", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "hw.tzasc_denials", Layer: "hw", Clock: clockVirtual, Unit: "count", Better: "lower"},

	{Name: "spm.view_read8_host_ns", Layer: "spm", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "spm.view_read4k_host_ns", Layer: "spm", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "spm.view_read64k_host_ns", Layer: "spm", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "spm.tlb_hit_ratio", Layer: "spm", Clock: clockVirtual, Unit: "ratio", Better: "higher"},
	{Name: "spm.world_switches_per_op", Layer: "spm", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "spm.s2_switches_per_op", Layer: "spm", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "spm.traps_per_op", Layer: "spm", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "spm.failover_vns", Layer: "spm", Clock: clockVirtual, Unit: "ns", Better: "lower"},

	{Name: "srpc.sync_call_host_ns", Layer: "srpc", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "srpc.sync_call_allocs", Layer: "srpc", Clock: clockHost, Unit: "count", Better: "lower"},
	{Name: "srpc.sync_call_events", Layer: "srpc", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "srpc.stream_call_host_ns", Layer: "srpc", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "srpc.zc_call_host_ns", Layer: "srpc", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "srpc.sync_call_vns", Layer: "srpc", Clock: clockVirtual, Unit: "ns", Better: "lower"},
	{Name: "srpc.calls_per_op", Layer: "srpc", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "srpc.bytes_per_op", Layer: "srpc", Clock: clockVirtual, Unit: "B", Better: "lower"},
	{Name: "srpc.sync_waits_per_call", Layer: "srpc", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "srpc.doorbell_fallbacks", Layer: "srpc", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "srpc.ring_occupancy_max", Layer: "srpc", Clock: clockVirtual, Unit: "count", Better: "lower"},

	{Name: "core.platform_boot_host_ns", Layer: "core", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "core.session_open_host_ns", Layer: "core", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "core.cuda_open_host_ns", Layer: "core", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "mos.mecalls_streamed_per_op", Layer: "mos", Clock: clockVirtual, Unit: "count", Better: "lower"},

	{Name: "gpu.launches_per_op", Layer: "gpu", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "gpu.htod_bytes_per_op", Layer: "gpu", Clock: clockVirtual, Unit: "B", Better: "lower"},
	{Name: "npu.runs_per_op", Layer: "npu", Clock: clockVirtual, Unit: "count", Better: "lower"},

	{Name: "serve.capacity_vrps", Layer: "serve", Clock: clockVirtual, Unit: "req/s", Better: "higher"},
	{Name: "serve.vp50_ns", Layer: "serve", Clock: clockVirtual, Unit: "ns", Better: "lower"},
	{Name: "serve.vp99_ns", Layer: "serve", Clock: clockVirtual, Unit: "ns", Better: "lower"},
	{Name: "serve.overload_goodput_vrps", Layer: "serve", Clock: clockVirtual, Unit: "req/s", Better: "higher"},
	{Name: "serve.recovery_vms", Layer: "serve", Clock: clockVirtual, Unit: "ms", Better: "lower"},
	{Name: "serve.avg_batch", Layer: "serve", Clock: clockVirtual, Unit: "count", Better: "higher"},
	{Name: "serve.batches_per_op", Layer: "serve", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "serve.host_ns_per_batch", Layer: "serve", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "serve.stage_batch_share", Layer: "serve", Clock: clockVirtual, Unit: "ratio", Better: "lower"},
	{Name: "serve.stage_queue_share", Layer: "serve", Clock: clockVirtual, Unit: "ratio", Better: "lower"},
	{Name: "serve.stage_execute_share", Layer: "serve", Clock: clockVirtual, Unit: "ratio", Better: "higher"},
	{Name: "serve.shed_frac_overload", Layer: "serve", Clock: clockVirtual, Unit: "ratio", Better: "lower"},
	{Name: "serve.drain_lag_vns", Layer: "serve", Clock: clockVirtual, Unit: "ns", Better: "lower"},
	{Name: "serve.replays", Layer: "serve", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "serve.retries", Layer: "serve", Clock: clockVirtual, Unit: "count", Better: "lower"},

	{Name: "cluster.boot_nodes_host_ns", Layer: "cluster", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "cluster.ring_assign_host_ns", Layer: "cluster", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "cluster.rehomes", Layer: "cluster", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "cluster.split_brain", Layer: "cluster", Clock: clockVirtual, Unit: "count", Better: "lower"},

	{Name: "attest.ticket_hit_ratio", Layer: "attest", Clock: clockVirtual, Unit: "ratio", Better: "higher"},
	{Name: "attest.verify_hit_ratio", Layer: "attest", Clock: clockVirtual, Unit: "ratio", Better: "higher"},
	{Name: "attest.resume_vns", Layer: "attest", Clock: clockVirtual, Unit: "ns", Better: "lower"},
	{Name: "attest.cold_vns", Layer: "attest", Clock: clockVirtual, Unit: "ns", Better: "lower"},
	{Name: "attest.ticket_resume_host_ns", Layer: "attest", Clock: clockHost, Unit: "ns", Better: "lower"},
	{Name: "attest.cold_verify_host_ns", Layer: "attest", Clock: clockHost, Unit: "ns", Better: "lower"},

	{Name: "elastic.migrations", Layer: "elastic", Clock: clockVirtual, Unit: "count", Better: "higher"},
	{Name: "elastic.interrupted", Layer: "elastic", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "elastic.replayed", Layer: "elastic", Clock: clockVirtual, Unit: "count", Better: "lower"},
	{Name: "elastic.decide_host_ns", Layer: "elastic", Clock: clockHost, Unit: "ns", Better: "lower"},

	{Name: "metrics.hist_p99_rel_err", Layer: "metrics", Clock: clockVirtual, Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Layer: "trace", Clock: clockHost, Unit: "ratio", Better: "lower"},

	{Name: "paper.cronus_mean_overhead_pct", Layer: "paper", Clock: clockVirtual, Unit: "%", Better: "lower"},
	{Name: "paper.cronus_worst_overhead_pct", Layer: "paper", Clock: clockVirtual, Unit: "%", Better: "lower"},
	{Name: "paper.spatial_gain_pct", Layer: "paper", Clock: clockVirtual, Unit: "%", Better: "higher"},
	{Name: "paper.srpc_stream_vns_per_call", Layer: "paper", Clock: clockVirtual, Unit: "ns", Better: "lower"},
	{Name: "paper.recovery_vms", Layer: "paper", Clock: clockVirtual, Unit: "ms", Better: "lower"},
}

// Constants frozen at the seed commit (f584599). They are never recomputed
// from the current capacity: a change that moves the knee must show up as a
// changed serve.capacity_vrps against an unchanged reference point. The
// README records how each was chosen.
const (
	// sloP99 is the latency limit on the exact p99 of the resnet batch-4
	// classes, used by the capacity search and checked at the reference rate.
	sloP99 = 150 * sim.Microsecond
	// maxDrainLag bounds how far past the load window a run may still be
	// completing admitted work before it counts as a growing backlog.
	maxDrainLag = sim.Millisecond

	probeWindow     = 50 * sim.Millisecond  // one capacity-search or overload probe
	referenceWindow = 200 * sim.Millisecond // the exact-quantile run
)

// paperOverheadLimitPct is the paper's §VI headline: CRONUS costs at most
// 7.1% over native on Fig 7 + Fig 8.
const paperOverheadLimitPct = 7.1
