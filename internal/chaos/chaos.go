// Package chaos is the serving plane's deterministic fault-injection
// harness: it compiles seeded fault schedules, arms them against a booted
// CRONUS platform through the repo's injection hooks, and checks that the
// plane's isolation and exactly-once guarantees survive.
//
// A Schedule is compiled from a seed alone (Compile): every fault kind,
// target and trigger is drawn from one seeded RNG stream, so the same seed
// always yields the same schedule. Triggers are either virtual-time instants
// (a partition crash After a fixed offset) or predicates over deterministic
// event ordinals (the Nth record pushed on sRPC stream S, the Nth kernel
// launch on a device, the first K local-attestation reports after a
// partition restart). Because every ordinal is itself a pure function of
// virtual time and the serving plane's seeded load, a trigger maps to
// exactly one instant in the run — rerunning the same seed replays the same
// faults at the same virtual nanoseconds.
//
// An Injector arms a schedule on a platform: crashes ride the SPM's
// proceed-trap entry point (spm.SPM.Fail), ring corruption rides the sRPC
// call hook (srpc.CallHook + Client.InjectRecordCorruption), device hangs
// ride the GPU launch path (gpu.Device.ArmLaunchHang), and attestation
// outages ride the SPM report veto (spm.SPM.SetAttestFault). Two kinds
// exercise the health supervision layer: persistent hangs kill an mOS's
// heartbeat publisher (mos.MOS.InjectWedge) so only the SPM watchdog can
// detect the silence, and crash-loops re-fail a partition through
// consecutive recoveries until the sliding-window policy quarantines it.
//
// Options.Nodes is the topology. Below 2 the seed runs on one booted platform
// and the Injector arms it; with Nodes >= 2 it runs on the serving plane's
// multi-node fabric, where faults ride the serving config itself
// (serve.Config.NodeFaults, AttestFaults, Migrations, ScaleStorms). Every
// kind belongs to exactly one topology (the taxonomy table below); naming a
// kind on the other one is a typed *TopologyError, never a silent no-op.
//
// Run executes one seed twice — a fault-free baseline and a faulted run over
// the identical serving config — and checks the invariants. The shared core
// holds on both topologies: request conservation with zero duplicates,
// exactly-once completion, typed failures only, and survivor tenants
// indistinguishable from baseline (identical accounting, p95 within
// tolerance). A single platform adds the supervision, observability and
// crashed-memory probes (probe.go); the fabric adds no-split-brain, victims
// rehomed, and the attestation and elastic checks. RunCampaign soaks N
// consecutive seeds; cronus-chaos is the CLI front end. Reports are
// deterministic text: same seed, byte-identical report.
package chaos

import (
	"fmt"
	"strings"

	"cronus/internal/elastic"
	"cronus/internal/serve"
	"cronus/internal/sim"
)

// Kind names one injectable fault class.
type Kind string

const (
	// KindCrash proceed-traps a GPU partition at a virtual instant: its
	// mOS panics, enclaves die, and the SPM runs the recovery protocol.
	KindCrash Kind = "crash"
	// KindRingCorrupt flips bits in the header of a just-pushed sRPC
	// record, exercising the executor's framing validation and the typed
	// ErrRingCorrupt teardown.
	KindRingCorrupt Kind = "ring-corrupt"
	// KindDeviceHang parks one kernel launch forever, exercising the
	// serving plane's request watchdog and bounded retry.
	KindDeviceHang Kind = "device-hang"
	// KindAttestFail vetoes local-attestation reports for a partition
	// after its restart, delaying replica reconnection; Compile always
	// pairs it with a KindCrash on the same partition so the restart path
	// actually runs.
	KindAttestFail Kind = "attest-fail"
	// KindPersistentHang wedges a partition's mOS at a virtual instant —
	// its heartbeat publisher dies while everything else stays up — so the
	// only path to recovery is the SPM watchdog raising FailHang within
	// its detection bound.
	KindPersistentHang Kind = "persistent-hang"
	// KindCrashLoop crashes the same partition repeatedly, waiting out
	// each recovery, until the SPM's sliding-window policy quarantines it;
	// the serving plane must drain the partition and re-place its load.
	KindCrashLoop Kind = "crash-loop"
)

// Node-level fault kinds target whole fabric nodes rather than single
// partitions; they belong to the cluster topology (Options.Nodes >= 2) and
// ride the serving plane's Config.NodeFaults hooks instead of an Injector.
const (
	// KindNodeCrash kills a whole fabric node at a virtual instant: its
	// partition block quarantines permanently (the machine is gone), every
	// in-flight batch there is cancelled and replayed exactly once, and each
	// tenant homed on the node re-hashes to a survivor.
	KindNodeCrash Kind = "node-crash"
	// KindNetPartition severs one node's fabric link for a window: dispatch
	// toward it fails with the typed *cluster.NetPartitionedError and
	// completions crossing back park until the link heals.
	KindNetPartition Kind = "net-partition"
	// KindSlowLink multiplies one node's link latency for a window —
	// degraded but functional, so its tenants slow down without failing.
	KindSlowLink Kind = "slow-link"
)

// Attestation fault kinds exercise the serving plane's attestation gate
// (serve.Config.AttestTickets + AttestFaults); like the node kinds they are
// cluster-topology faults, riding the serving config instead of an Injector.
// Naming either kind in Options.Kinds turns the gate on in both the baseline
// and faulted runs of the seed, so the two stay comparable.
const (
	// KindAttestStorm flushes the whole session-ticket cache at a virtual
	// instant: a mass expiry that sends every tenant back through cold
	// (cached, coalesced) quote verification at once.
	KindAttestStorm Kind = "attest-storm"
	// KindStaleMeasurement flips a word of a victim partition's mOS
	// measurement; the continuous re-measurement prober detects the
	// mismatch, sheds in-flight work with the typed *attest.RevokedError
	// and drains the partition into quarantine.
	KindStaleMeasurement Kind = "stale-measurement"
)

// Migration fault kinds exercise the serving plane's elastic-capacity layer
// (serve.Config.Migrations / ScaleStorms / Autoscale): planned live migration
// and the load-driven autoscaler under duress. Like the node and attestation
// kinds they are cluster-topology faults riding the serving config, and like
// the attestation kinds they change the config symmetrically where needed —
// a scale-storm in the mix arms an inert autoscaler in the baseline run too,
// so the two runs stay comparable.
const (
	// KindMigrateInterrupt starts a planned cross-node live migration and
	// kills the source mid-checkpoint: the plane must abandon the migration
	// and degrade to the ordinary crash-failover path with every in-flight
	// request replayed exactly once — nothing lost, nothing duplicated.
	KindMigrateInterrupt Kind = "migrate-interrupt"
	// KindScaleStorm forces the autoscaler to oscillate for a window: every
	// control tick alternates scale-down/scale-up regardless of load, and the
	// plane must converge back to full capacity once the window closes.
	KindScaleStorm Kind = "scale-storm"
	// KindDrainRace runs a planned migration and force-dispatches one batch
	// onto the quiescing source after placement stopped picking it — the race
	// between an admission decision and the quiesce. The racing batch must
	// still resolve exactly once.
	KindDrainRace Kind = "drain-race"
)

// taxon is one row of the fault taxonomy: the topology a kind belongs to,
// whether an empty Options.Kinds draws it, and the serving-config feature its
// mere presence in the mix arms — in the baseline and the faulted run alike,
// so the two stay comparable.
type taxon struct {
	kind      Kind
	cluster   bool // runs on the multi-node fabric (Nodes >= 2), else on one platform
	byDefault bool
	arm       func(*serve.Config)
}

// taxonomy is every fault kind in canonical order. Compile's default mixes,
// Options validation, KnownKinds, ParseKinds and the cronus-chaos usage text
// all read this one table, so none of them can drift from the others.
var taxonomy = []taxon{
	{kind: KindCrash, byDefault: true},
	{kind: KindRingCorrupt, byDefault: true},
	{kind: KindDeviceHang, byDefault: true},
	{kind: KindAttestFail, byDefault: true},
	{kind: KindPersistentHang, byDefault: true},
	{kind: KindCrashLoop, byDefault: true},
	{kind: KindNodeCrash, cluster: true, byDefault: true},
	{kind: KindNetPartition, cluster: true, byDefault: true},
	{kind: KindSlowLink, cluster: true, byDefault: true},
	{kind: KindAttestStorm, cluster: true, arm: armAttestGate},
	{kind: KindStaleMeasurement, cluster: true, arm: armAttestGate},
	{kind: KindMigrateInterrupt, cluster: true},
	{kind: KindScaleStorm, cluster: true, arm: armAutoscaler},
	{kind: KindDrainRace, cluster: true},
}

// armAttestGate turns on the session-ticket admission gate: a short TTL makes
// tickets cycle a few times inside the window, and a tight reprobe catches a
// tampered measurement well before the drain.
func armAttestGate(cfg *serve.Config) {
	cfg.AttestTickets = true
	cfg.AttestTicketTTL = 2 * sim.Millisecond
	cfg.AttestReprobe = 500 * sim.Microsecond
}

// armAutoscaler arms the autoscaler with watermarks it can never hit on its
// own: only a compiled scale-storm window makes it act, so the baseline run
// stays a true control.
func armAutoscaler(cfg *serve.Config) {
	cfg.Autoscale = &elastic.Config{
		Interval:  100 * sim.Microsecond,
		HighDepth: 1 << 30,
		LowDepth:  -1,
		HighShed:  2,
	}
}

// lookup returns the kind's taxonomy row, or nil for an unknown kind.
func lookup(k Kind) *taxon {
	for i := range taxonomy {
		if taxonomy[i].kind == k {
			return &taxonomy[i]
		}
	}
	return nil
}

// kindsWhere lists the taxonomy's kinds that satisfy keep, in canonical order.
func kindsWhere(keep func(*taxon) bool) []Kind {
	var kinds []Kind
	for i := range taxonomy {
		if keep(&taxonomy[i]) {
			kinds = append(kinds, taxonomy[i].kind)
		}
	}
	return kinds
}

// KnownKinds is every parseable fault kind in canonical order: the
// single-platform kinds, then the node-level, attestation and migration
// kinds of the cluster topology.
func KnownKinds() []Kind {
	return kindsWhere(func(*taxon) bool { return true })
}

// TopologyKinds is the comma-separated list of the kinds that belong to one
// topology — cluster (Nodes >= 2) or single platform — for usage text.
func TopologyKinds(cluster bool) string {
	return joinKinds(kindsWhere(func(t *taxon) bool { return t.cluster == cluster }))
}

// joinKinds renders a kind list comma-separated.
func joinKinds(kinds []Kind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return strings.Join(names, ",")
}

// ParseKinds parses a comma-separated fault-kind list (the cronus-chaos
// -kinds flag) against the known kinds — partition-level, node-level,
// attestation and migration alike — rejecting unknown names.
func ParseKinds(s string) ([]Kind, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var kinds []Kind
	for _, part := range strings.Split(s, ",") {
		k := Kind(strings.TrimSpace(part))
		if lookup(k) == nil {
			return nil, unknownKind(k)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// unknownKind is the error for a kind the taxonomy does not list.
func unknownKind(k Kind) error {
	return fmt.Errorf("chaos: unknown fault kind %q (known: %s)", k, joinKinds(KnownKinds()))
}

// Fault is one compiled fault with its trigger. Which fields are meaningful
// depends on Kind; the zero values of the others are ignored.
type Fault struct {
	// Kind selects the fault class.
	Kind Kind
	// Partition is the target GPU partition index (crash, attest-fail)
	// or device index (device-hang; the pool maps partition i to gpu i).
	Partition int
	// After is the crash instant as a virtual-time offset from arming.
	After sim.Duration
	// Launch is the device-lifetime launch ordinal that hangs (1-based).
	Launch uint64
	// Stream and AfterCalls trigger ring corruption after the AfterCalls-th
	// record pushed on sRPC stream Stream.
	Stream uint64
	// AfterCalls is the push ordinal on Stream that triggers corruption.
	AfterCalls uint64
	// Mask is XORed into the corrupted record's slots header word.
	Mask uint32
	// Fails is how many post-restart attestation reports are vetoed.
	Fails int
	// Tenant is the tenant index whose stream a ring corruption targets
	// (recorded for survivor analysis).
	Tenant int
	// Crashes is how many back-to-back crashes a crash-loop injects
	// (matched to the supervision policy's QuarantineAfter).
	Crashes int
	// Node is the target fabric node of a cluster-topology fault.
	Node int
	// Until closes a net-partition, slow-link or scale-storm window opened
	// at After.
	Until sim.Duration
	// Mult is a slow-link's latency multiplier.
	Mult float64
	// ToNode and ToPart are a migration fault's destination endpoint
	// (Node/Partition name the source).
	ToNode int
	// ToPart is the destination partition index of a migration fault.
	ToPart int
}

// String renders the fault and its trigger deterministically.
func (f *Fault) String() string {
	switch f.Kind {
	case KindCrash:
		return fmt.Sprintf("crash      partition=gpu-part%d after=%v", f.Partition, f.After)
	case KindRingCorrupt:
		return fmt.Sprintf("ring-corrupt tenant=%d stream=%d after-calls=%d mask=%#x",
			f.Tenant, f.Stream, f.AfterCalls, f.Mask)
	case KindDeviceHang:
		return fmt.Sprintf("device-hang  device=gpu%d launch=%d", f.Partition, f.Launch)
	case KindAttestFail:
		return fmt.Sprintf("attest-fail partition=gpu-part%d fails=%d", f.Partition, f.Fails)
	case KindPersistentHang:
		return fmt.Sprintf("persistent-hang partition=gpu-part%d after=%v", f.Partition, f.After)
	case KindCrashLoop:
		return fmt.Sprintf("crash-loop  partition=gpu-part%d after=%v crashes=%d",
			f.Partition, f.After, f.Crashes)
	case KindNodeCrash:
		return fmt.Sprintf("node-crash  node=n%d after=%v", f.Node, f.After)
	case KindNetPartition:
		return fmt.Sprintf("net-partition node=n%d after=%v until=%v", f.Node, f.After, f.Until)
	case KindSlowLink:
		return fmt.Sprintf("slow-link   node=n%d after=%v until=%v mult=%g",
			f.Node, f.After, f.Until, f.Mult)
	case KindAttestStorm:
		return fmt.Sprintf("attest-storm after=%v", f.After)
	case KindStaleMeasurement:
		return fmt.Sprintf("stale-measurement node=n%d partition=gpu-part%d after=%v",
			f.Node, f.Partition, f.After)
	case KindMigrateInterrupt:
		return fmt.Sprintf("migrate-interrupt n%d/gpu-part%d -> n%d/gpu-part%d after=%v",
			f.Node, f.Partition, f.ToNode, f.ToPart, f.After)
	case KindScaleStorm:
		return fmt.Sprintf("scale-storm  after=%v until=%v", f.After, f.Until)
	case KindDrainRace:
		return fmt.Sprintf("drain-race   n%d/gpu-part%d -> n%d/gpu-part%d after=%v",
			f.Node, f.Partition, f.ToNode, f.ToPart, f.After)
	}
	return string(f.Kind)
}

// Schedule is one compiled fault plan: the seed it derives from and the
// fault list in arming order.
type Schedule struct {
	// Seed is the RNG seed the schedule was compiled from.
	Seed int64
	// Faults is the compiled fault list, in arming order.
	Faults []*Fault
}

// String renders the schedule deterministically, one fault per line.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d (%d faults)\n", s.Seed, len(s.Faults))
	for i, f := range s.Faults {
		fmt.Fprintf(&b, "  [%d] %s\n", i, f)
	}
	return b.String()
}

// has reports whether the schedule contains a fault of kind k.
func (s *Schedule) has(k Kind) bool {
	for _, f := range s.Faults {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// Options shapes both schedule compilation and the serving runs that a
// schedule is injected into. The zero value selects the documented defaults.
type Options struct {
	// Tenants is the tenant count of the serving config (default 2).
	Tenants int
	// Partitions is the GPU partition pool size (default 2).
	Partitions int
	// Window is the load-generation window (default 10ms).
	Window sim.Duration
	// Rate is the per-tenant Poisson offered load in requests per virtual
	// second (default 2500).
	Rate float64
	// Faults is the number of faults Compile draws (default 3; an
	// attest-fail draw adds its paired crash on top).
	Faults int
	// Nodes is the topology: with Nodes >= 2 the serving runs span a
	// simulated multi-node fabric and the fault mix comes from the cluster
	// kinds; below 2 the seed runs on one platform with the single-platform
	// kinds. Partitions must be a positive multiple of Nodes >= 2.
	Nodes int
	// Kinds restricts the fault mix (default: every kind the taxonomy draws
	// by default on the selected topology). A kind of the other topology is
	// rejected with a *TopologyError.
	Kinds []Kind
	// Trace arms the event collector and a per-partition flight recorder
	// during each seed's faulted run: supervision quarantines auto-dump
	// their partition's recent spans, and any invariant violation dumps
	// every ring — the dumps ride in the (still deterministic) report.
	// Request-level causal traces and the SLO invariants are always on;
	// Trace only controls the event spine and its recorder. The flow-model
	// plane under the cluster topology records no spans, so Trace with
	// Nodes >= 2 is rejected with a *TopologyError.
	Trace bool
}

// cluster reports whether the options select the multi-node topology.
func (o *Options) cluster() bool { return o.Nodes >= 2 }

func (o *Options) defaults() {
	if o.Tenants <= 0 {
		o.Tenants = 2
	}
	if o.Partitions <= 0 {
		o.Partitions = 2
	}
	if o.Window <= 0 {
		o.Window = 10 * sim.Millisecond
	}
	if o.Rate <= 0 {
		o.Rate = 2500
	}
	if o.Faults <= 0 {
		o.Faults = 3
	}
	if len(o.Kinds) == 0 {
		cluster := o.cluster()
		o.Kinds = kindsWhere(func(t *taxon) bool { return t.byDefault && t.cluster == cluster })
	}
}

// TopologyError is the typed usage error for a fault kind or option that does
// not belong to the selected topology: a single-platform kind with Nodes >= 2,
// a cluster kind with Nodes < 2, or Trace on the cluster topology. Exactly one
// of Kind and Option is set.
type TopologyError struct {
	// Kind is the offending fault kind.
	Kind Kind
	// Option is the offending Options field name.
	Option string
	// Nodes is the topology the options selected.
	Nodes int
}

// Error implements error.
func (e *TopologyError) Error() string {
	what, belongs := fmt.Sprintf("fault kind %q", e.Kind), "cluster topology (Nodes >= 2)"
	if e.Option != "" {
		what = "option " + e.Option
	}
	if e.Nodes >= 2 {
		belongs = "single-platform topology (Nodes < 2)"
	}
	return fmt.Sprintf("chaos: %s belongs to the %s, got Nodes = %d", what, belongs, e.Nodes)
}

// validate rejects (defaulted) options no topology can run: a partition
// layout that does not divide over the nodes (*serve.ShardLayoutError), an
// unknown kind, or a kind or option of the other topology (*TopologyError).
func (o *Options) validate() error {
	if err := serve.CheckShardLayout(o.Partitions, o.Partitions, o.Nodes); err != nil {
		return err
	}
	for _, k := range o.Kinds {
		switch t := lookup(k); {
		case t == nil:
			return unknownKind(k)
		case t.cluster != o.cluster():
			return &TopologyError{Kind: k, Nodes: o.Nodes}
		}
	}
	if o.Trace && o.cluster() {
		return &TopologyError{Option: "Trace", Nodes: o.Nodes}
	}
	return nil
}
