package spm

import "cronus/internal/metrics"

// SPM-level accounting: partition lifecycle, shared-memory grant churn,
// proceed-trap activity, and the failover latency distribution (§IV-D). The
// histogram is registered eagerly so metrics snapshots always carry it, even
// for runs with no fault — "zero failovers" is a result, not a gap.
var (
	mPartsCreated   = metrics.Default.Counter("spm.partitions.created")
	mPartsFailed    = metrics.Default.Counter("spm.partitions.failed")
	mPartsRecovered = metrics.Default.Counter("spm.partitions.recovered")
	mGrantsShared   = metrics.Default.Counter("spm.grants.shared")
	mGrantsUnshared = metrics.Default.Counter("spm.grants.unshared")
	mGrantsRevoked  = metrics.Default.Counter("spm.grants.revoked")
	mTrapsHandled   = metrics.Default.Counter("spm.traps.handled")
	hFailoverNS     = metrics.Default.Histogram("spm.failover.latency_ns")

	// Per-reason failure counters (§IV-D's three circumstances), so soak
	// output distinguishes watchdog detections from panics, plus the
	// crash-loop quarantine lifecycle.
	mFailRequested    = metrics.Default.Counter("spm.partitions.failed.requested")
	mFailPanic        = metrics.Default.Counter("spm.partitions.failed.panic")
	mFailHang         = metrics.Default.Counter("spm.partitions.failed.hang")
	mFailRevoked      = metrics.Default.Counter("spm.partitions.failed.revoked")
	mPartsQuarantined = metrics.Default.Counter("spm.partitions.quarantined")

	// Simulated-TLB effectiveness (tlb.go): hits skip both stage walks,
	// flushes count whole-cache invalidations after a table mutation.
	mTLBHits    = metrics.Default.Counter("spm.tlb.hits")
	mTLBMisses  = metrics.Default.Counter("spm.tlb.misses")
	mTLBFlushes = metrics.Default.Counter("spm.tlb.flushes")

	// mAttestFaults counts local-attestation reports refused by an
	// installed SetAttestFault hook (chaos-injected provisioning outages).
	mAttestFaults = metrics.Default.Counter("spm.attest.faults_injected")
)

// countFailReason bumps the per-reason failure counter.
func countFailReason(r FailReason) {
	switch r {
	case FailRequested:
		mFailRequested.Inc()
	case FailPanic:
		mFailPanic.Inc()
	case FailHang:
		mFailHang.Inc()
	case FailRevoked:
		mFailRevoked.Inc()
	}
}
