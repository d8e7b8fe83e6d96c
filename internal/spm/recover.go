package spm

import (
	"fmt"
	"sort"

	"cronus/internal/attest"
	"cronus/internal/hw"
	"cronus/internal/sim"
	"cronus/internal/trace"
)

// FailReason classifies how the SPM learned of a partition failure (§IV-D
// lists the three circumstances).
type FailReason int

const (
	// FailRequested: the partition or the untrusted OS asked for a
	// restart (mOS update / reconfiguration).
	FailRequested FailReason = iota
	// FailPanic: the partition trapped into the SPM with an unhandled
	// hardware or software failure.
	FailPanic
	// FailHang: the SPM watchdog found the partition unresponsive.
	FailHang
	// FailRevoked: continuous re-measurement found the partition's
	// measurement stale or mismatched and revoked its attestation; the
	// partition drains straight into quarantine (never auto-restarts).
	FailRevoked
)

// String names the failure reason.
func (r FailReason) String() string {
	switch r {
	case FailRequested:
		return "requested"
	case FailPanic:
		return "panic"
	case FailHang:
		return "hang"
	case FailRevoked:
		return "revoked"
	}
	return "unknown"
}

// FailureRecord captures one recovery for inspection by tests and the
// failover experiment.
type FailureRecord struct {
	Partition string
	Reason    FailReason
	FailedAt  sim.Time
	ReadyAt   sim.Time // zero while recovering, and forever if quarantined
	Epoch     uint64   // epoch after recovery
	// Backoff is the exponential restart delay this recovery serves before
	// reloading the mOS (zero for a first failure or disabled backoff).
	Backoff sim.Duration
	// Quarantined reports that this failure tripped the crash-loop policy:
	// the partition is scrubbed and never restarted (ReadyAt stays zero).
	Quarantined bool
}

// Downtime is how long the partition was unavailable.
func (r FailureRecord) Downtime() sim.Duration { return sim.Duration(r.ReadyAt - r.FailedAt) }

// Fail starts the proceed-trap recovery of partition p (§IV-D). Step ① runs
// synchronously: every sharer's stage-2 and SMMU entries for memory shared
// with p are invalidated, closing the TOCTOU window before anything else can
// run, and r_f is set so new share requests are refused. Steps ② and ③ are
// asynchronous: a recovery process clears the device and shared memory,
// reloads the mOS, and later traps deliver fault signals to survivors.
//
// Calling Fail on a partition that is already failed is a no-op (concurrent
// failure reports collapse; step ① execution is serialized by construction).
func (s *SPM) Fail(p *Partition, reason FailReason) *FailureRecord {
	if p.state != PartReady {
		return nil
	}
	failedAt := s.K.Now()

	// Step ①: invalidate stage-2 and SMMU entries of every partition that
	// shares memory with p, in both directions. Only the incarnation a
	// grant was created in is touched — IPA numbers from an older epoch
	// belong to unrelated current allocations.
	for _, gid := range s.sortedGrantIDs() {
		g := s.grants[gid]
		if g.dead || (g.owner != p && g.peer != p) {
			continue
		}
		g.dead = true
		g.failedBy = p.Name
		other, otherBase, otherEpoch := g.peer, g.peerIPA, g.peerEpoch
		if g.peer == p {
			other, otherBase, otherEpoch = g.owner, g.ownerIPA, g.ownerEpoch
		}
		if other.epoch == otherEpoch {
			for i := 0; i < g.npages; i++ {
				other.stage2.Invalidate(otherBase + uint64(i))
			}
		}
		s.invalidateSMMU(g)
	}

	// r_f = 1: all subsequent share requests against p are refused.
	p.state = PartFailed

	// The partition's simulated threads are torn down (the hardware
	// context is gone). Kill in a stable order for determinism.
	procs := make([]*sim.Proc, 0, len(p.procs))
	for proc := range p.procs {
		procs = append(procs, proc)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].ID() < procs[j].ID() })
	for _, proc := range procs {
		s.K.Kill(proc)
	}
	p.procs = make(map[*sim.Proc]struct{})

	rec := &FailureRecord{Partition: p.Name, Reason: reason, FailedAt: failedAt}
	sv := s.SupervisionConfig()
	recent := s.recordFailure(p, failedAt, reason)
	if p.forceQuarantine || (sv.QuarantineAfter > 0 && recent >= sv.QuarantineAfter) {
		rec.Quarantined = true
		p.forceQuarantine = false
	} else {
		rec.Backoff = restartBackoff(sv, recent)
	}
	sig := p.restartSig
	s.isolationChanged()
	mPartsFailed.Inc()
	countFailReason(reason)
	trace.Default.InstantAt(failedAt, "spm", p.Name, "partition-failed ("+reason.String()+")", nil)
	s.notifyFailure(rec)

	// Steps ②: clear the device and the partition's memory, then reload
	// the mOS. Runs concurrently with other partitions' recoveries.
	s.K.Spawn(fmt.Sprintf("spm-recover-%s", p.Name), func(proc *sim.Proc) {
		p.state = PartRestarting
		endClear := trace.Default.Span(proc, "spm", p.Name, "failover:device-clear")
		proc.Sleep(s.Costs.DeviceClear)
		// Scrub every page the failed partition owned (A3: crashed
		// information leaks) and return it to the allocator, in IPA
		// order so the free list stays deterministic.
		vpns := make([]uint64, 0, len(p.ownPages))
		for vpn := range p.ownPages {
			vpns = append(vpns, vpn)
		}
		sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
		for _, vpn := range vpns {
			op := p.ownPages[vpn]
			delete(s.sharedPFN, op.pfn)
			_ = s.M.Mem.FreePage(op.region, hw.PA(op.pfn<<hw.PageShift))
		}
		p.ownPages = make(map[uint64]ownedPage)
		if p.Device != "" {
			_ = s.M.Bus.ResetDevice(p.Device)
			s.M.SMMU.Stream(p.Device).Clear()
		}
		endClear()
		// The failed incarnation's address space dies here: stage-2
		// cleared, IPA allocator reset, epoch bumped so stale views and
		// enclave ids are refused, and grants no incarnation can ever
		// trap again (both sides moved past the grant's epochs)
		// garbage-collected.
		p.stage2.Clear()
		p.ipaNext = 1
		p.epoch++
		for _, gid := range s.sortedGrantIDs() {
			g := s.grants[gid]
			if g.owner.epoch != g.ownerEpoch && g.peer.epoch != g.peerEpoch {
				for _, pfn := range g.pfns {
					if s.sharedPFN[pfn] == gid {
						delete(s.sharedPFN, pfn)
					}
				}
				delete(s.grants, gid)
			}
		}
		if rec.Quarantined {
			// Crash-loop policy tripped: the partition is scrubbed and
			// isolated and the SPM never reloads its mOS. ReadyAt stays
			// zero.
			p.state = PartQuarantined
			mPartsQuarantined.Inc()
			// The reason and failure count travel in args so a flight-
			// recorder dump of this track is self-explanatory. Allocated
			// only when tracing is on (Instant checks first).
			var args map[string]string
			if trace.Default.Enabled() {
				args = map[string]string{
					"reason":   reason.String(),
					"failures": fmt.Sprintf("%d", recent),
				}
			}
			trace.Default.Instant(proc, "spm", p.Name, "partition-quarantined", args)
			p.restartSig = sim.NewSignal(s.K)
			s.isolationChanged()
			sig.Fire()
			return
		}
		// Exponential restart backoff: repeated failures inside the
		// sliding window delay the reload so a flapping partition cannot
		// monopolize the recovery path.
		if rec.Backoff > 0 {
			endBackoff := trace.Default.Span(proc, "spm", p.Name, "failover:restart-backoff")
			proc.Sleep(rec.Backoff)
			endBackoff()
		}
		// Reload and initialize the mOS image — the pending image if a
		// software update was requested, else the same image.
		endRestart := trace.Default.Span(proc, "spm", p.Name, "failover:mos-restart")
		proc.Sleep(s.Costs.MOSRestart)
		if p.pendingImage != nil {
			p.mosHash = attest.Measure(p.pendingImage)
			p.pendingImage = nil
		}
		endRestart()
		p.lastBeat = proc.Now()
		p.state = PartReady // r_f = 0
		rec.ReadyAt = proc.Now()
		rec.Epoch = p.epoch
		mPartsRecovered.Inc()
		hFailoverNS.Observe(int64(rec.ReadyAt - rec.FailedAt))
		trace.Default.SpanAt(rec.FailedAt, rec.ReadyAt, "spm", p.Name, "failover", nil)
		trace.Default.Instant(proc, "spm", p.Name, "partition-ready", nil)
		p.restartSig = sim.NewSignal(s.K)
		s.isolationChanged()
		if p.onRestart != nil {
			p.onRestart(p.epoch)
		}
		sig.Fire()
	})
	return rec
}

// UpdateMOS performs a requested mOS software update (§IV-D's first failure
// circumstance: "a restart ... often caused by an update or configuration
// of mOS"): the partition goes through the full proceed-trap recovery —
// sharers are invalidated, the device is scrubbed — and comes back running
// the new, freshly measured image, so attestation reports immediately
// reflect the update.
func (s *SPM) UpdateMOS(p *Partition, newImage []byte) *FailureRecord {
	p.pendingImage = newImage
	rec := s.Fail(p, FailRequested)
	if rec == nil {
		p.pendingImage = nil
	}
	return rec
}

// Revoke drains p through the proceed-trap machinery straight into
// quarantine: the same step-① sharer invalidation and scrub a FailHang
// gets, but with the crash-loop counting bypassed — a revoked measurement
// is never a transient, so the partition parks in PartQuarantined
// regardless of its failure history and stays there. This is the recovery
// half of continuous re-measurement (DESIGN.md §15): the serving plane calls
// it when a background probe finds the partition's measurement stale or
// mismatched, and the quarantine propagates to placement exactly like a
// hang does today.
func (s *SPM) Revoke(p *Partition) *FailureRecord {
	p.forceQuarantine = true
	rec := s.Fail(p, FailRevoked)
	if rec == nil {
		p.forceQuarantine = false
	}
	return rec
}

// TamperMeasurement flips one word of p's recorded mOS measurement and
// returns the tampered value. It is the stale-measurement fault-injection
// surface: like SetAttestFault it is ordinary control flow (no test-only
// build tags), and everything downstream — the re-measurement probe, the
// ticket revocation, the quarantine drain — is the production path.
func (s *SPM) TamperMeasurement(p *Partition) attest.Measurement {
	for i := 0; i < 8; i++ {
		p.mosHash[i] ^= 0xa5
	}
	return p.mosHash
}
