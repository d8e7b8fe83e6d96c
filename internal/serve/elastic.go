package serve

// The elastic-capacity layer (DESIGN.md §21.6): planned live migration and the
// load-driven autoscaler, both built on the flow-model plane's existing
// exactly-once machinery rather than beside it.
//
// Planned migration generalizes the proceed-trap failover into a graceful
// path. The state machine is quiesce → checkpoint → transfer → replay →
// release: the source partition's replicas stop taking new placements but
// finish what they hold (quiesce), the mEnclave state snapshots at the
// host-memcpy rate like a dnn.Trainer checkpoint (checkpoint), the snapshot
// crosses the pool link priced through TransferNS — or the local DMA
// engine on a same-node move (transfer), anything still in flight at the
// drain deadline is requeued exactly once through the failover's evacuate
// (replay), and only then does the source release (release). Because
// every partition boots the same mOS image, the destination carries the same
// measurement as the source: the tenant's attestation tickets stay valid
// across the move and re-admission costs one MAC resume, not a cold quote
// verification.
//
// The autoscaler is a control loop over signals the plane already exports —
// total queue depth and cumulative shed rate — with watermark hysteresis and
// a cooldown (internal/elastic).
// Scale-down rides the migration primitive and then scrubs the vacated
// partition; scale-up re-boots a released partition, charging mOS boot plus
// re-attestation in virtual time before the capacity is usable. A partition's
// lifecycle (draining, released) is stated once, on its pool record
// (poolPart), so it flips for every tenant at the same instant. Released
// capacity shrinks the admission bound (capacity() counts it as lost), so
// the loop's own actions feed back into the signals it watches: it can
// oscillate, overshoot and be tuned like a real controller, and the
// scale-storm chaos kind forces exactly that oscillation.

import (
	"fmt"
	"slices"

	"cronus/internal/elastic"
	"cronus/internal/metrics"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// Migration schedules one planned live migration: at offset At from serving
// start, move the serving capacity of the From partition onto To. Interrupt
// makes the source die mid-checkpoint instead (the migrate-interrupt chaos
// kind: the plane must fall back to crash-failover with nothing lost or
// duplicated); Race force-dispatches one in-flight batch onto the quiescing
// source (the drain-race chaos kind: the racing batch must still resolve
// exactly once).
type Migration struct {
	At        sim.Duration
	From      elastic.Endpoint
	To        elastic.Endpoint
	Interrupt bool
	Race      bool
}

// ScaleStorm schedules one forced autoscaler oscillation window [At, Until)
// (offsets from serving start): every control tick inside it alternates
// scale-down/scale-up regardless of load — the scale-storm chaos kind.
type ScaleStorm struct {
	At    sim.Duration
	Until sim.Duration
}

// validateElastic rejects elastic configurations the plane cannot model.
func validateElastic(cfg Config) error {
	if len(cfg.Migrations) == 0 && cfg.Autoscale == nil && len(cfg.ScaleStorms) == 0 {
		return nil
	}
	if cfg.Shards < 2 {
		return fmt.Errorf("serve: Migrations/Autoscale require the flow-model plane (Shards >= 2)")
	}
	if len(cfg.ScaleStorms) > 0 && cfg.Autoscale == nil {
		return fmt.Errorf("serve: ScaleStorms require Autoscale")
	}
	nodes, ppn := cfg.pool()
	for i, m := range cfg.Migrations {
		switch {
		case m.At <= 0:
			return fmt.Errorf("serve: Migrations[%d] needs At > 0", i)
		case m.From.Node < 0 || m.From.Node >= nodes || m.To.Node < 0 || m.To.Node >= nodes:
			return fmt.Errorf("serve: Migrations[%d] endpoints out of node range [0,%d)", i, nodes)
		case m.From.Part < 0 || m.From.Part >= ppn || m.To.Part < 0 || m.To.Part >= ppn:
			return fmt.Errorf("serve: Migrations[%d] endpoints out of partition range [0,%d)", i, ppn)
		case m.From == m.To:
			return fmt.Errorf("serve: Migrations[%d] migrates %s onto itself", i, m.From)
		}
	}
	for i, w := range cfg.ScaleStorms {
		if w.At <= 0 || w.Until <= w.At {
			return fmt.Errorf("serve: ScaleStorms[%d] needs 0 < At < Until", i)
		}
	}
	return nil
}

// elState is the elastic-capacity layer's server-side state. Only the
// migration injectors and the autoscaler loop mutate it.
type elState struct {
	ctl *elastic.Controller

	// busy serializes capacity actions: one migration at a time.
	busy bool

	// The layer's books: Result.Elastic reads them back from the run's
	// metrics snapshot.
	ctrMigrations  *metrics.Counter
	ctrInterrupted *metrics.Counter
	ctrRaces       *metrics.Counter
	ctrUps         *metrics.Counter
	ctrDowns       *metrics.Counter
	ctrReplayed    *metrics.Counter

	events []string
}

// elBoot builds the elastic layer before any load exists.
func (srv *Server) elBoot() {
	ctlCfg := elastic.Config{}
	if srv.cfg.Autoscale != nil {
		ctlCfg = *srv.cfg.Autoscale
	}
	srv.el = &elState{
		ctl:            elastic.NewController(ctlCfg),
		ctrMigrations:  srv.reg.Counter("serve.elastic.migrations"),
		ctrInterrupted: srv.reg.Counter("serve.elastic.interrupted"),
		ctrRaces:       srv.reg.Counter("serve.elastic.drain_races"),
		ctrUps:         srv.reg.Counter("serve.elastic.scale_ups"),
		ctrDowns:       srv.reg.Counter("serve.elastic.scale_downs"),
		ctrReplayed:    srv.reg.Counter("serve.elastic.replayed"),
	}
}

// event appends one timestamped line to the elastic event log.
func (el *elState) event(now sim.Time, msg string) {
	el.events = append(el.events, fmt.Sprintf("%s at %s", msg, sim.Duration(now)))
}

// elRepIdx maps an endpoint to its index in srv.parts and in every tenant's
// replica slice.
func (srv *Server) elRepIdx(e elastic.Endpoint) int {
	return e.Node*srv.cl.ppn + e.Part
}

// elStart arms the elastic layer from Serve: one injector proc per planned
// migration plus the autoscaler loop. No-op when the layer is unarmed.
func (srv *Server) elStart(p *sim.Proc) {
	if srv.el == nil {
		return
	}
	start := p.Now()
	for i, m := range srv.cfg.Migrations {
		i, m := i, m
		srv.pl.K.Spawn(fmt.Sprintf("serve-migrate-%d", i), func(p *sim.Proc) {
			p.Sleep(m.At)
			srv.elMigrate(p, m)
		})
	}
	if srv.cfg.Autoscale != nil {
		for _, w := range srv.cfg.ScaleStorms {
			srv.el.ctl.AddStorm(start+sim.Time(w.At), start+sim.Time(w.Until))
		}
		srv.pl.K.Spawn("serve-autoscaler", srv.elRun)
	}
}

// elSignals samples the plane's load state for one control tick.
func (srv *Server) elSignals() elastic.Signals {
	var s elastic.Signals
	var offered, shed uint64
	for _, t := range srv.tenants {
		s.QueueDepth += t.inFlight()
		offered += t.offered
		shed += t.shed
	}
	if offered > 0 {
		s.ShedRate = float64(shed) / float64(offered)
	}
	return s
}

// elRun is the autoscaler loop body: sample, decide, act, every control
// interval until the kernel stops (the same park-forever shape as the
// re-measurement prober).
func (srv *Server) elRun(p *sim.Proc) {
	interval := srv.el.ctl.Config().Interval
	inStorm := false
	for {
		p.Sleep(interval)
		now := p.Now()
		storm := srv.el.ctl.StormActive(now)
		act := srv.el.ctl.Decide(now, srv.elSignals())
		if act == elastic.Hold && !(inStorm && !storm) {
			inStorm = storm
			continue
		}
		switch act {
		case elastic.ScaleUp:
			srv.elScaleUp(p)
		case elastic.ScaleDown:
			srv.elScaleDown(p)
		}
		if inStorm && !storm {
			// The storm window just closed: restore full capacity so the
			// plane converges back to its configured pool instead of
			// parking load behind whatever the last oscillation released.
			srv.elRestore(p)
		}
		inStorm = storm
	}
}

// elMigrate runs one migration through the state machine; config-scheduled
// migrations and autoscaler scale-downs both land here (drain-for-upgrade,
// consolidation and scale-down are one primitive). The source stays released
// afterwards — on a planned run that is the drain semantics, under the
// autoscaler the scale-up path re-boots it when load demands. Returns true
// when the source was released, false when the migration was skipped or
// interrupted.
func (srv *Server) elMigrate(p *sim.Proc, m Migration) bool {
	el := srv.el
	now := p.Now()
	label := fmt.Sprintf("migration %s -> %s", m.From, m.To)
	if el.busy {
		el.event(now, label+" skipped (another capacity action in progress)")
		return false
	}
	src, dst := srv.elRepIdx(m.From), srv.elRepIdx(m.To)
	srcPart, dstPart := srv.parts[src], srv.parts[dst]
	skip := ""
	switch {
	case srcPart.released:
		skip = "source out of service"
	case dstPart.released:
		skip = "destination out of service"
	case srcPart.quarantined || slices.ContainsFunc(srv.tenants, func(t *tenant) bool { return t.reps[src].down }):
		skip = "source failed"
	case dstPart.quarantined:
		skip = "destination quarantined"
	}
	if skip != "" {
		el.event(now, label+" skipped ("+skip+")")
		return false
	}
	el.busy = true
	// Quiesce: the source takes no new placements but finishes what its
	// lanes hold. Admission capacity is untouched — a draining partition is
	// still doing work.
	el.event(now, label+": quiesce")
	srcPart.draining = true
	if m.Race {
		srv.elDrainRace(now, m, src)
	}
	// Checkpoint: snapshot every tenant's mEnclave on the source at the
	// host-memcpy rate (the dnn.Trainer DtoH checkpoint path).
	ck := srv.elCheckpointBytes()
	ckNS := srv.pl.Costs.Memcpy(ck)
	if m.Interrupt {
		// The source dies halfway through the snapshot. Un-quiesce (the
		// partition is about to be down, not draining) and hand the wreck to
		// the ordinary crash-failover path: the SPM proceed-trap fires the
		// failure subscription, evacuate replays the in-flight work,
		// and the partition rejoins after restart. The migration is
		// abandoned, nothing is lost or duplicated.
		p.Sleep(ckNS / 2)
		srcPart.draining = false
		el.ctrInterrupted.Inc()
		el.busy = false
		el.event(p.Now(), label+" interrupted: source failed mid-checkpoint")
		srv.plats[m.From.Node].SPM.Fail(srcPart.sp, spm.FailPanic)
		return false
	}
	p.Sleep(ckNS)
	// Replay: the drain deadline. Whatever the source still holds is
	// evacuated and requeued exactly like a failover's — each request
	// re-dispatches exactly once, on the destination, because the source is
	// still draining and about to release.
	replayed := 0
	for _, t := range srv.tenants {
		replayed += srv.evacuate(p.Now(), t, nil, t.reps[src])
	}
	el.ctrReplayed.Add(uint64(replayed))
	// Transfer: the snapshot crosses the fabric to another node (TransferNS
	// prices serialization, bandwidth and slow-link windows) or rides the
	// local DMA engine on a same-node move, then restores into the
	// destination enclaves at the memcpy rate.
	if m.From.Node != m.To.Node {
		p.Sleep(srv.cl.fab.TransferNS(m.To.Node, ck, p.Now()))
	} else {
		p.Sleep(srv.pl.Costs.DMA(ck))
	}
	p.Sleep(srv.pl.Costs.Memcpy(ck))
	// Release: only now does the source leave service.
	done := p.Now()
	srcPart.draining, srcPart.released = false, true
	el.ctrMigrations.Inc()
	el.busy = false
	el.event(done, fmt.Sprintf("%s completed (%d KiB state, %d replayed)", label, ck>>10, replayed))
	for _, t := range srv.tenants {
		// A release that emptied the tenant's home placement set was
		// effectively a node evacuation: redrive re-homes the tenant.
		srv.redrive(done, t, "migrated")
	}
	return true
}

// elDrainRace injects the drain-race fault: one batch is force-dispatched
// onto the quiescing source after the placement policies already stopped
// picking it — the race between an admission decision and the quiesce. The
// batch either completes on the source before the drain deadline or is
// cancelled and replayed with everything else; exactly-once must hold either
// way. Only tenants whose placement set contains the source race (the
// tenants homed on the source node — racing anyone else would fabricate a
// split-brain the real race cannot produce).
func (srv *Server) elDrainRace(now sim.Time, m Migration, src int) {
	for _, t := range srv.tenants {
		if t.home != m.From.Node {
			continue
		}
		rep := t.reps[src]
		var b *batch
		switch {
		case t.shOpen != nil:
			// Seal the open batch early and aim it at the source instead of
			// letting the policy place it.
			b = shSeal(t)
		case len(t.shBacklog) > 0:
			b = t.shBacklog[0]
			t.shBacklog = t.shBacklog[1:]
		default:
			continue
		}
		srv.el.ctrRaces.Inc()
		srv.el.event(now, fmt.Sprintf("drain-race: %s batch of %d admitted onto quiescing %s",
			t.spec.Name, len(b.reqs), m.From))
		srv.shDispatchTo(now, t, b, rep)
		return
	}
	srv.el.event(now, fmt.Sprintf("drain-race on %s: no batch available to race", m.From))
}

// elCheckpointBytes sizes one partition's migration snapshot: per tenant,
// the mEnclave state plus the staging arena contents.
func (srv *Server) elCheckpointBytes() int {
	total := 0
	for _, t := range srv.tenants {
		total += elastic.EnclaveStateBytes + t.reps[0].inCap
	}
	return total
}

// elActive counts a node's in-service partitions (not released, not
// quarantined) and returns the highest- and lowest-indexed ones.
func (srv *Server) elActive(node int) (active, hi, lo int) {
	ppn := srv.cl.ppn
	hi, lo = -1, -1
	for pi := 0; pi < ppn; pi++ {
		if srv.parts[node*ppn+pi].retired() {
			continue
		}
		active++
		hi = pi
		if lo < 0 {
			lo = pi
		}
	}
	return active, hi, lo
}

// elScaleDown picks the node with the most active partitions (ties: lowest
// node), migrates its highest active partition onto its lowest, and scrubs
// the vacated one. elastic.MinActive partitions per node always survive.
func (srv *Server) elScaleDown(p *sim.Proc) {
	if srv.el.busy {
		return
	}
	best, bestActive := -1, 0
	for n := 0; n < srv.cl.nodes; n++ {
		if !srv.cl.alive[n] {
			continue
		}
		if active, _, _ := srv.elActive(n); active > bestActive {
			best, bestActive = n, active
		}
	}
	if best < 0 || bestActive <= elastic.MinActive {
		return
	}
	_, hi, lo := srv.elActive(best)
	if hi == lo {
		return
	}
	m := Migration{
		From: elastic.Endpoint{Node: best, Part: hi},
		To:   elastic.Endpoint{Node: best, Part: lo},
	}
	if !srv.elMigrate(p, m) {
		return
	}
	srv.el.ctrDowns.Inc()
	p.Sleep(elastic.ScrubCost)
	srv.el.event(p.Now(), fmt.Sprintf("scale-down: %s released and scrubbed", m.From))
}

// elScaleUp re-activates the first released partition (node order, then
// partition order), charging mOS boot plus re-attestation in virtual time
// before the capacity is usable. The re-booted partition runs the same mOS
// image, so its measurement matches the boot-pinned value and existing
// tickets keep working. Reports whether a partition came back: false when
// another capacity action is in progress or nothing is released.
func (srv *Server) elScaleUp(p *sim.Proc) bool {
	if srv.el.busy {
		return false
	}
	i := slices.IndexFunc(srv.parts, func(pp *poolPart) bool { return pp.released })
	if i < 0 {
		return false
	}
	el, pp := srv.el, srv.parts[i]
	ep := elastic.Endpoint{Node: pp.node, Part: pp.idx}
	el.busy = true
	el.event(p.Now(), fmt.Sprintf("scale-up: booting %s (boot %s + attest %s)",
		ep, elastic.BootCost, elastic.AttestCost))
	p.Sleep(elastic.BootCost + elastic.AttestCost)
	pp.released = false
	el.busy = false
	el.ctrUps.Inc()
	now := p.Now()
	el.event(now, fmt.Sprintf("scale-up: %s in service", ep))
	for _, t := range srv.tenants {
		srv.redrive(now, t, "scale-up")
	}
	return true
}

// elRestore scales every released partition back into service — the
// post-storm convergence path, so a closed oscillation window leaves the
// plane at its configured capacity. It stops at the first scale-up that makes
// no progress (busy): never spin.
func (srv *Server) elRestore(p *sim.Proc) {
	for srv.elScaleUp(p) {
	}
}
