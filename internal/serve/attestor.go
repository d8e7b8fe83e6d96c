package serve

// The attestation admission gate (DESIGN.md §15): the serving-plane half of
// attestation at scale. With Config.AttestTickets set, every batch dispatch
// is gated on the dispatching tenant holding a valid attestation of the
// target partition:
//
//   - a session with a live ticket for (tenant, partition measurement)
//     resumes for one MAC check (Costs.MACFixed) and skips the quote
//     round-trip entirely;
//   - a cold session pays the quote verification (Costs.VerifyFixed × 2,
//     the same cost Platform.RemoteAttest charges) through the shared
//     VerifyCache — memoized per (measurement, epoch) and coalesced with
//     identical in-flight verifications — plus one MAC to seal the fresh
//     ticket it mints;
//   - the delay lands where admission cost lives on each plane: folded
//     into the batch submit cost on the flow-model plane, slept on the
//     dispatcher proc on the classic plane.
//
// Continuous re-measurement (Config.AttestReprobe) spawns a background
// virtual-time prober that compares every pooled partition's current mOS
// measurement against the value pinned at boot. A mismatch revokes the
// partition: its tickets are purged and its verification verdicts dropped,
// every batch in flight on it fails with the typed *attest.RevokedError
// (results from a partition with a flipped measurement are untrusted, so
// they are shed, not replayed), and the partition drains through the
// existing quarantine machinery — spm.Revoke parks it in PartQuarantined,
// the OnFailure subscription marks its pool record quarantined, and
// placement routes around it exactly like a FailHang, cross-node rehoming
// included. The boot-pinned measurement and the revocation instant live on
// the same record (poolPart). No request ever completes on a revoked
// partition (serve.attest.post_revoke_completions must stay 0; the chaos
// harness asserts it).
//
// Fault injection: AttestStorm flushes the whole ticket cache at a drawn
// instant (mass expiry — every session goes back through cold
// attestation), and StaleMeasurement flips a word of a victim partition's
// measurement so the next probe catches it. Both are ordinary control
// flow on the production paths, like the FailAt injector.

import (
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/metrics"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// Attestation fault kinds (Config.AttestFaults).
const (
	// AttestStorm flushes the ticket cache at Fault.At: a mass expiry
	// that sends every session back through cold attestation at once.
	AttestStorm = "attest-storm"
	// StaleMeasurement flips a word of the victim partition's recorded
	// measurement at Fault.At; the re-measurement prober detects the
	// mismatch on its next pass and revokes the partition.
	StaleMeasurement = "stale-measurement"
)

// AttestFault schedules one attestation fault (offset from serving start).
// The chaos harness compiles attest-storm / stale-measurement schedules
// into this, the way node-level faults compile into Config.NodeFaults.
type AttestFault struct {
	Kind string       // AttestStorm or StaleMeasurement
	At   sim.Duration // injection instant, offset from serving start
	// Node/Part pick the StaleMeasurement victim: partition Part on node
	// Node. Ignored by AttestStorm.
	Node int
	Part int
}

// attState is the serving plane's attestation-gate state.
type attState struct {
	tickets *attest.TicketCache
	verify  *attest.VerifyCache

	coldCost   sim.Duration // quote verification (VerifyFixed × 2)
	resumeCost sim.Duration // ticket MAC check / mint seal (MACFixed)

	ctrCold       *metrics.Counter   // dispatches that attested cold
	ctrResumed    *metrics.Counter   // dispatches that resumed on a ticket
	ctrProbes     *metrics.Counter   // re-measurement probes taken
	ctrRevoked    *metrics.Counter   // partitions revoked
	ctrPostRevoke *metrics.Counter   // completions on a revoked partition (must stay 0)
	hAdmitNS      *metrics.Histogram // attestation delay charged per dispatch
	hColdNS       *metrics.Histogram // ... split: cold-path dispatches only
	hResumeNS     *metrics.Histogram // ... split: ticket-resume dispatches only
}

// validateAttest rejects attestation configurations the plane cannot run.
func validateAttest(cfg Config) error {
	if !cfg.AttestTickets {
		if cfg.AttestTicketTTL > 0 || cfg.AttestReprobe > 0 || len(cfg.AttestFaults) > 0 {
			return fmt.Errorf("serve: AttestTicketTTL/AttestReprobe/AttestFaults require AttestTickets")
		}
		return nil
	}
	nodes, partsPerNode := cfg.pool()
	for i, f := range cfg.AttestFaults {
		switch f.Kind {
		case AttestStorm:
			if f.At <= 0 {
				return fmt.Errorf("serve: AttestFaults[%d] (%s) needs At > 0", i, f.Kind)
			}
		case StaleMeasurement:
			if f.At <= 0 {
				return fmt.Errorf("serve: AttestFaults[%d] (%s) needs At > 0", i, f.Kind)
			}
			if cfg.AttestReprobe <= 0 {
				return fmt.Errorf("serve: AttestFaults[%d] (%s) needs AttestReprobe > 0 (nothing would detect it)", i, f.Kind)
			}
			if f.Node < 0 || f.Node >= nodes || f.Part < 0 || f.Part >= partsPerNode {
				return fmt.Errorf("serve: AttestFaults[%d] targets n%d/gpu-part%d of a %d-node × %d-partition pool",
					i, f.Node, f.Part, nodes, partsPerNode)
			}
		default:
			return fmt.Errorf("serve: AttestFaults[%d] has unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// atBoot builds the attestation gate: caches registered in the run's
// metrics registry, boot measurements pinned for the prober.
func (srv *Server) atBoot() {
	seed := []byte(fmt.Sprintf("serve-attest/%d", srv.cfg.Seed))
	a := &attState{
		tickets:       attest.NewTicketCache(seed, attestCacheCap, srv.cfg.AttestTicketTTL, srv.reg),
		verify:        attest.NewVerifyCache(srv.reg),
		coldCost:      srv.pl.Costs.VerifyFixed * 2,
		resumeCost:    srv.pl.Costs.MACFixed,
		ctrCold:       srv.reg.Counter("serve.attest.cold"),
		ctrResumed:    srv.reg.Counter("serve.attest.resumed"),
		ctrProbes:     srv.reg.Counter("serve.attest.probes"),
		ctrRevoked:    srv.reg.Counter("serve.attest.revocations"),
		ctrPostRevoke: srv.reg.Counter("serve.attest.post_revoke_completions"),
		hAdmitNS:      srv.reg.Histogram("serve.attest.admission_ns"),
		hColdNS:       srv.reg.Histogram("serve.attest.cold_ns"),
		hResumeNS:     srv.reg.Histogram("serve.attest.resume_ns"),
	}
	for _, pp := range srv.parts {
		pp.pinned = pp.sp.MOSHash()
	}
	srv.at = a
}

// attestGate runs the admission-path attestation for tenant t dispatching
// to rep at now: it returns the virtual delay to charge (ticket resume or
// cold attestation through the verify cache), or the typed *RevokedError
// when the target partition's measurement has been revoked.
func (srv *Server) attestGate(t *tenant, rep *replica, now sim.Time) (sim.Duration, error) {
	a := srv.at
	if a == nil {
		return 0, nil
	}
	meas, epoch := rep.part.sp.MOSHash(), rep.part.sp.Epoch()
	if rep.part.revokedAt > 0 {
		return 0, &attest.RevokedError{Tenant: t.spec.Name, Partition: rep.part.sp.Name, Meas: meas}
	}
	hit, err := a.tickets.Resume(t.spec.Name, meas, epoch, now)
	if err != nil {
		return 0, err
	}
	var d sim.Duration
	if hit {
		// Ticket resumption: one MAC check, no quote round-trip.
		d = a.resumeCost
		a.ctrResumed.Inc()
		a.hResumeNS.Observe(int64(d))
	} else {
		// Cold attestation: the quote verification (memoized per epoch,
		// coalesced with identical in-flight ones) plus the seal of the
		// fresh ticket this session mints.
		d = a.verify.Delay(meas, epoch, now, a.coldCost) + a.resumeCost
		a.tickets.Mint(t.spec.Name, meas, epoch, now+sim.Time(d))
		a.ctrCold.Inc()
		a.hColdNS.Observe(int64(d))
	}
	a.hAdmitNS.Observe(int64(d))
	return d, nil
}

// atStart arms the run's attestation machinery after the load exists: the
// continuous re-measurement prober and the scheduled fault injectors.
func (srv *Server) atStart(p *sim.Proc) {
	if srv.at == nil {
		return
	}
	if srv.cfg.AttestReprobe > 0 {
		srv.pl.K.Spawn("serve-attest-prober", srv.atProbe)
	}
	for i, f := range srv.cfg.AttestFaults {
		f := f
		srv.pl.K.Spawn(fmt.Sprintf("serve-attest-fault-%d", i), func(p *sim.Proc) {
			p.Sleep(f.At)
			switch f.Kind {
			case AttestStorm:
				n := srv.at.tickets.Storm(p.Now())
				srv.cl.events = append(srv.cl.events,
					fmt.Sprintf("attest-storm flushed %d tickets at %s", n, sim.Duration(p.Now())))
			case StaleMeasurement:
				part := srv.plats[f.Node].GPUs[f.Part].Part
				srv.plats[f.Node].SPM.TamperMeasurement(part)
			}
		})
	}
}

// atProbe is the continuous re-measurement loop: every AttestReprobe of
// virtual time, compare each ready partition's current measurement against
// the boot-pinned value and revoke on mismatch.
func (srv *Server) atProbe(p *sim.Proc) {
	for {
		p.Sleep(srv.cfg.AttestReprobe)
		for i, pp := range srv.parts {
			srv.at.ctrProbes.Inc()
			if pp.sp.State() == spm.PartReady && pp.sp.MOSHash() != pp.pinned {
				srv.atRevoke(p, i)
			}
		}
	}
}

// atRevoke revokes one partition whose measurement went stale: tickets
// minted against the divergent (tampered) measurement are purged and its
// verification verdicts dropped, in-flight batches on the partition are shed
// with the typed error, and the partition drains into quarantine through the
// SPM — from where the existing failure subscription propagates it to
// placement exactly like a hang. The boot-pinned measurement stays trusted:
// every other partition in the pool legitimately runs that same image, so
// their tickets and cached verdicts must survive — only the divergent value
// and the divergent partition are poisoned.
func (srv *Server) atRevoke(p *sim.Proc, i int) {
	a, pp := srv.at, srv.parts[i]
	if pp.revokedAt > 0 {
		return
	}
	now := p.Now()
	pp.revokedAt = now
	a.ctrRevoked.Inc()
	partName, tampered := pp.sp.Name, pp.sp.MOSHash()
	a.tickets.RevokeMeasurement(partName, tampered)
	a.verify.Invalidate(tampered)
	srv.cl.events = append(srv.cl.events,
		fmt.Sprintf("partition n%d/%s measurement revoked at %s", pp.node, partName, sim.Duration(now)))
	// Shed everything in flight on the revoked partition before the
	// quarantine drain runs: its results are untrusted, so the requests fail
	// typed instead of replaying a measurement we no longer trust. (The
	// executed plane holds nothing in flight here: its workers hold batches
	// in pending, which the failover drains.)
	for _, t := range srv.tenants {
		srv.evacuate(now, t, &attest.RevokedError{Tenant: t.spec.Name, Partition: partName, Meas: tampered}, t.reps[i])
	}
	// Quarantine drain: spm.Revoke bypasses the crash-loop count (a stale
	// measurement is never a transient) and parks the partition in
	// PartQuarantined; the OnFailure subscription marks it quarantined the
	// same instant.
	srv.plats[pp.node].SPM.Revoke(pp.sp)
	// A revoked partition never comes back, so don't wait out the device
	// scrub before re-routing: re-home every tenant whose home pool this
	// revocation emptied, exactly like a node crash does.
	for _, t := range srv.tenants {
		srv.redrive(now, t, "measurement-revoked")
	}
}
