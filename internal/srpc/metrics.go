package srpc

import "cronus/internal/metrics"

// Stream accounting lives in the process-wide registry rather than on the
// Client so experiments read aggregates from one snapshot and the hot paths
// stay branch-plus-atomic when metrics are disabled. Names never embed the
// stream id — ids keep incrementing across runs in one process and would
// break snapshot determinism.
var (
	mCalls        = metrics.Default.Counter("srpc.calls")
	mSyncWaits    = metrics.Default.Counter("srpc.sync_waits")
	mBytesMoved   = metrics.Default.Counter("srpc.bytes_moved")
	mStreams      = metrics.Default.Counter("srpc.streams.opened")
	mPeerFailures = metrics.Default.Counter("srpc.streams.peer_failures")
	gRingOcc      = metrics.Default.Gauge("srpc.ring.occupancy_slots")
	// mDoorbellFallback counts waits that fell back to plain quantum
	// polling because a doorbell could not be armed (header word unmapped,
	// e.g. teardown in progress). Serving-plane runs watch this to detect
	// event-efficient waits silently degrading.
	mDoorbellFallback = metrics.Default.Counter("srpc.doorbell.fallback")
	// mZCCalls counts fused zero-copy records (CallZC); mArenaBytes counts
	// payload bytes staged in arena grants instead of pushed through rings.
	mZCCalls    = metrics.Default.Counter("srpc.zc.calls")
	mArenaBytes = metrics.Default.Counter("srpc.zc.arena_bytes")
	// mRingCorrupt counts streams aborted by a failed ring-consistency
	// check (corrupted producer index or record header). Each abort tears
	// exactly one stream down and surfaces mos.ErrRingCorrupt to its owner.
	mRingCorrupt = metrics.Default.Counter("srpc.ring.corruptions")
)
