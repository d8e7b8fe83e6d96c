// Package spm implements CRONUS's Secure Partition Manager — the S-EL2
// hypervisor of the MicroTEE architecture (§III-A). The SPM owns every
// stage-2 page table, creates and isolates partitions (one per device, each
// running one mOS), brokers trusted shared memory between partitions
// (§IV-C), and drives the proceed-trap failure recovery procedure (§IV-D).
//
// The SPM also plays the secure monitor's attestation role (§IV-A): it
// derives the platform attestation key from the fused root of trust,
// measures mOS images, and signs platform reports.
//
// Failure handling is the proceed-trap procedure of §IV-D (recover.go):
// Fail invalidates a partition's isolation state in one step — stage-2
// tables cleared, shared-memory grants revoked, registered procs killed —
// then restarts the device and mOS in a new partition epoch while peers
// observe *PeerFault on their next access instead of blocking. OnFailure
// lets policy layers (the serving plane's scheduler) learn of a trap the
// instant it fires; AwaitReady parks callers until the recovery completes.
//
// Health supervision (supervise.go) closes the watchdog loop of §IV-D's
// third failure circumstance: each supervised mOS publishes a monotonic
// heartbeat word into SPM-visible memory, a watchdog process fails silent
// partitions with FailHang after MissedBeats periods, restart backoff grows
// exponentially with the sliding-window failure history, and a partition
// that crash-loops past QuarantineAfter is parked in PartQuarantined for
// good: quarantine is terminal.
//
// Two hooks exist for deterministic fault injection (the chaos harness):
// Fail itself doubles as the crash injection point, and SetAttestFault can
// veto local-attestation reports to model provisioning outages during a
// replica restart. Both are ordinary control flow — no test-only build
// tags — so injected faults exercise exactly the production paths.
package spm

import (
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/hw"
	"cronus/internal/sim"
	"cronus/internal/trace"
)

// PartitionID identifies an S-EL2 partition (the mOS id — the top 8 bits of
// every enclave id minted inside it).
type PartitionID uint8

// PartState is a partition's lifecycle state.
type PartState int

const (
	// PartReady: the partition is serving requests.
	PartReady PartState = iota
	// PartFailed: a failure was detected; stage-2 entries of sharers are
	// already invalidated (r_f = 1) and recovery is in progress.
	PartFailed
	// PartRestarting: device clearing and mOS reload are underway.
	PartRestarting
	// PartQuarantined: the partition crash-looped past the supervision
	// policy's window (or its measurement was revoked); the SPM scrubbed it
	// and never restarts it.
	PartQuarantined
)

// String names the lifecycle state.
func (s PartState) String() string {
	switch s {
	case PartReady:
		return "ready"
	case PartFailed:
		return "failed"
	case PartRestarting:
		return "restarting"
	case PartQuarantined:
		return "quarantined"
	}
	return "unknown"
}

// Partition is one isolated S-EL2 partition: a device, its mOS, and the
// mEnclaves running on it.
type Partition struct {
	ID     PartitionID
	Name   string
	Device string // device tree node this partition owns ("" for CPU-only)

	spm          *SPM
	stage2       *hw.AddrSpace // IPA -> PA
	ipaNext      uint64        // bump allocator for IPA page numbers
	state        PartState
	epoch        uint64 // incremented every restart; stale views/eids die
	mosHash      attest.Measurement
	pendingImage []byte // staged mOS update, applied at the next restart

	// ownPages tracks pages allocated to this partition (for scrubbing on
	// failure): IPA page -> {PA frame, region}.
	ownPages map[uint64]ownedPage

	// procs are the simulated threads running inside this partition; they
	// are killed when the partition fails.
	procs map[*sim.Proc]struct{}

	// beats is the watchdog heartbeat timestamp.
	lastBeat sim.Time
	hangable bool // partition participates in hang detection

	// Heartbeat word published by the supervised mOS (ArmHeartbeat): the
	// watchdog reads the 64-bit word at IPA beatIPA through this
	// partition's stage-2 table and treats any change since beatSeen as
	// progress. Valid only for the incarnation beatEpoch.
	beatIPA   uint64
	beatEpoch uint64
	beatArmed bool
	beatSeen  uint64

	// Crash-loop supervision state: panic/hang failure instants inside
	// the sliding window. forceQuarantine makes the next Fail quarantine
	// unconditionally — the measurement-revocation path (Revoke).
	failTimes       []sim.Time
	forceQuarantine bool

	// onRestart is installed by the mOS layer to re-initialize services
	// after recovery completes.
	onRestart func(epoch uint64)

	restartSig *sim.Signal // fires when the current recovery completes
}

type ownedPage struct {
	pfn    uint64
	region string
}

// State returns the partition's lifecycle state.
func (p *Partition) State() PartState { return p.state }

// Epoch returns the partition incarnation (bumped on every restart).
func (p *Partition) Epoch() uint64 { return p.epoch }

// MOSHash returns the measured mOS image hash.
func (p *Partition) MOSHash() attest.Measurement { return p.mosHash }

// Register adds a simulated thread to the partition so a failure kills it.
func (p *Partition) Register(proc *sim.Proc) { p.procs[proc] = struct{}{} }

// Unregister removes a finished thread.
func (p *Partition) Unregister(proc *sim.Proc) { delete(p.procs, proc) }

// SetRestartHook installs the mOS reload callback.
func (p *Partition) SetRestartHook(fn func(epoch uint64)) { p.onRestart = fn }

// failObserver is one registered OnFailure callback.
type failObserver struct {
	id int
	fn func(*FailureRecord)
}

// OnFailure registers an observer invoked synchronously from Fail, right
// after step ① completes (sharers invalidated, r_f set, partition threads
// killed) and before the asynchronous recovery starts. The record's
// ReadyAt/Epoch fields are filled in later, when the recovery completes;
// observers wanting the ready instant should AwaitReady. Observers must not
// block; they run in the failing caller's context. The returned function
// cancels the registration.
func (s *SPM) OnFailure(fn func(*FailureRecord)) func() {
	s.failNext++
	id := s.failNext
	s.failObs = append(s.failObs, failObserver{id: id, fn: fn})
	return func() {
		for i, o := range s.failObs {
			if o.id == id {
				s.failObs = append(s.failObs[:i], s.failObs[i+1:]...)
				return
			}
		}
	}
}

// notifyFailure runs the registered OnFailure observers in registration
// order.
func (s *SPM) notifyFailure(rec *FailureRecord) {
	for _, o := range s.failObs {
		o.fn(rec)
	}
}

// SPM is the secure partition manager.
type SPM struct {
	K     *sim.Kernel
	M     *hw.Machine
	Costs *sim.CostModel

	parts  map[PartitionID]*Partition
	nextID PartitionID
	grants map[int]*grant
	nextG  int
	// sharedPFN enforces the §IV-D rule that a physical page may be
	// shared at most once: pfn -> grant id.
	sharedPFN map[uint64]int

	// isoWatches are the isolation-change observers (see tlb.go): waiters
	// parked on shared-memory doorbells that must re-check state when the
	// SPM tears down a mapping without writing the watched word.
	isoWatches []isoWatch
	isoNext    int

	// failObs are the failure-record observers (OnFailure): policy layers
	// above the sessions (e.g. the serving plane's scheduler) that must
	// learn of a proceed-trap recovery the instant it starts.
	failObs  []failObserver
	failNext int

	// sup is the partition health policy (SetSupervision); the zero value
	// reproduces the legacy watchdog with backoff/quarantine disabled.
	sup Supervision

	// attestFault, when non-nil, can veto local attestation for a
	// partition's enclaves (SetAttestFault) — the chaos harness's model of
	// provisioning/attestation infrastructure failing while a replica
	// restarts.
	attestFault func(p *Partition) error

	// Attestation state.
	rotPriv    attest.PrivateKey
	atkPriv    attest.PrivateKey
	AtKPub     attest.PublicKey
	AtKCert    []byte // installed after the attestation service endorses AtK
	lsk        *attest.LocalSealer
	salt       []byte // the node fuse (NodeFuse); nil on a single machine
	dtHash     attest.Measurement
	deviceKeys map[string]attest.PublicKey
	deviceCert map[string][]byte
	deviceVend map[string]string

	booted bool
}

// Boot initializes the SPM on a machine: it validates and freezes the device
// tree, locks the TZASC/TZPC and fuse bank, and derives the platform keys
// from the fused root of trust. It mirrors CRONUS's boot sequence (§V-A).
func Boot(k *sim.Kernel, m *hw.Machine, costs *sim.CostModel) (*SPM, error) {
	if err := m.DT.Validate(); err != nil {
		return nil, fmt.Errorf("spm: rejecting device tree: %w", err)
	}
	m.DT.Freeze()
	m.TZASC.Lock()
	m.TZPC.Lock()
	m.GIC.Lock()
	rotSeed, err := m.Fuses.Read(hw.SecureWorld, "platform-rot")
	if err != nil {
		return nil, fmt.Errorf("spm: no platform root of trust fused: %w", err)
	}
	// A machine that is one node of a pool also has a node fuse, which
	// salts the root of trust — and with it every key derived below — and
	// the mOSes' DH seeds (NodeSalt). A machine without one derives what it
	// always did.
	salt, _ := m.Fuses.Read(hw.SecureWorld, NodeFuse)
	rotSeed = append(rotSeed, salt...)
	m.Fuses.Lock()
	rot := attest.KeyFromSeed(rotSeed)
	atk := attest.KeyFromSeed(append([]byte("atk/"), rotSeed...))
	dth := m.DT.Hash()
	s := &SPM{
		K:          k,
		M:          m,
		Costs:      costs,
		parts:      make(map[PartitionID]*Partition),
		nextID:     1,
		grants:     make(map[int]*grant),
		sharedPFN:  make(map[uint64]int),
		rotPriv:    rot,
		atkPriv:    atk,
		AtKPub:     atk.Public().(attest.PublicKey),
		lsk:        attest.NewLocalSealer(rotSeed),
		salt:       salt,
		dtHash:     attest.Measurement(dth),
		deviceKeys: make(map[string]attest.PublicKey),
		deviceCert: make(map[string][]byte),
		deviceVend: make(map[string]string),
		booted:     true,
	}
	// The isolation hardware has no clock; the SPM lends this machine its
	// own so every TZASC/TZPC/SMMU denial shows up as a trace instant at the
	// time the access was refused.
	m.ObserveDenials(func(f *hw.Fault) {
		if trace.Default.Enabled() {
			trace.Default.InstantAt(k.Now(), "hw", f.Space, "access-denied ("+f.Kind.String()+")", nil)
		}
	})
	return s, nil
}

// RoTPub returns the platform root-of-trust public key (for registering the
// platform with an attestation service).
func (s *SPM) RoTPub() attest.PublicKey { return s.rotPriv.Public().(attest.PublicKey) }

// ProveAtK returns the RoT's signature over the attestation key, which the
// attestation service verifies before endorsing AtK.
func (s *SPM) ProveAtK() []byte { return attest.Sign(s.rotPriv, s.AtKPub) }

// InstallAtKCert stores the service endorsement for inclusion in reports.
func (s *SPM) InstallAtKCert(cert []byte) { s.AtKCert = cert }

// DTHash returns the frozen device tree measurement.
func (s *SPM) DTHash() attest.Measurement { return s.dtHash }

// LSK exposes the local seal key to secure-world components only. The
// normal world has no path to this value.
func (s *SPM) LSK() *attest.LocalSealer { return s.lsk }

// NodeFuse names the fuse that makes a machine one node of a pool: its value
// salts the machine's root of trust and its mOSes' DH seeds.
const NodeFuse = "node"

// NodeSalt returns the node fuse's value (nil on a single machine), for the
// secure-world components that derive per-machine key material from it.
func (s *SPM) NodeSalt() []byte { return s.salt }

// CreatePartition carves out a new S-EL2 partition owning the named device
// ("" for a CPU partition) and measures its mOS image. One partition per
// device and vice versa (§III-A).
func (s *SPM) CreatePartition(name, device string, mosImage []byte) (*Partition, error) {
	if !s.booted {
		return nil, fmt.Errorf("spm: not booted")
	}
	if device != "" {
		if _, ok := s.M.DT.Find(device); !ok {
			return nil, fmt.Errorf("spm: device %q not in device tree", device)
		}
		for _, p := range s.parts {
			if p.Device == device {
				return nil, fmt.Errorf("spm: device %q already owned by partition %q", device, p.Name)
			}
		}
	}
	id := s.nextID
	s.nextID++
	p := &Partition{
		ID:         id,
		Name:       name,
		Device:     device,
		spm:        s,
		stage2:     hw.NewAddrSpace(fmt.Sprintf("stage2:%s", name)),
		ipaNext:    1, // IPA page 0 kept unmapped to catch nil derefs
		ownPages:   make(map[uint64]ownedPage),
		procs:      make(map[*sim.Proc]struct{}),
		restartSig: sim.NewSignal(s.K),
		mosHash:    attest.Measure(mosImage),
	}
	s.parts[id] = p
	mPartsCreated.Inc()
	trace.Default.InstantAt(s.K.Now(), "spm", name, "partition-created", nil)
	return p, nil
}

// Partition returns a partition by id.
func (s *SPM) Partition(id PartitionID) (*Partition, bool) {
	p, ok := s.parts[id]
	return p, ok
}

// Partitions lists all partitions.
func (s *SPM) Partitions() []*Partition {
	out := make([]*Partition, 0, len(s.parts))
	for id := PartitionID(1); id < s.nextID; id++ {
		if p, ok := s.parts[id]; ok {
			out = append(out, p)
		}
	}
	return out
}

// RegisterDeviceKey records an accelerator's authenticity material after the
// mOS verified key ownership (§IV-A): the device public key, its vendor and
// the vendor CA endorsement, all included in platform reports.
func (s *SPM) RegisterDeviceKey(device, vendor string, pub attest.PublicKey, cert []byte) {
	s.deviceKeys[device] = pub
	s.deviceCert[device] = cert
	s.deviceVend[device] = vendor
}

// BuildReport assembles and signs the platform attestation report for the
// given enclave measurements and client nonce.
func (s *SPM) BuildReport(enclaves map[string]attest.Measurement, nonce uint64) *attest.SignedReport {
	r := attest.Report{
		MOSHashes:     make(map[string]attest.Measurement),
		EnclaveHashes: enclaves,
		DTHash:        s.dtHash,
		DeviceKeys:    make(map[string]attest.PublicKey),
		Nonce:         nonce,
	}
	for _, p := range s.parts {
		r.MOSHashes[p.Name] = p.mosHash
	}
	for d, k := range s.deviceKeys {
		r.DeviceKeys[d] = k
	}
	certs := make(map[string][]byte, len(s.deviceCert))
	vends := make(map[string]string, len(s.deviceVend))
	for d, c := range s.deviceCert {
		certs[d] = c
	}
	for d, v := range s.deviceVend {
		vends[d] = v
	}
	return &attest.SignedReport{
		Report:        r,
		Sig:           attest.Sign(s.atkPriv, r.Encode()),
		AtK:           s.AtKPub,
		AtKCert:       s.AtKCert,
		DeviceCerts:   certs,
		DeviceVendors: vends,
	}
}

// LocalReportFor seals a local attestation report for an enclave hosted in
// partition p — used during sRPC establishment (§IV-A "Local Attestation").
func (s *SPM) LocalReportFor(p *Partition, eid uint32, enclaveHash attest.Measurement, nonce uint64) (attest.LocalReport, []byte, error) {
	if p.state != PartReady {
		return attest.LocalReport{}, nil, &NotReadyError{Msg: fmt.Sprintf("spm: partition %q not ready", p.Name)}
	}
	if s.attestFault != nil {
		if err := s.attestFault(p); err != nil {
			mAttestFaults.Inc()
			return attest.LocalReport{}, nil, fmt.Errorf("spm: local attestation for partition %q refused: %w", p.Name, err)
		}
	}
	if PartitionID(eid>>24) != p.ID {
		return attest.LocalReport{}, nil, fmt.Errorf("spm: eid %#x does not belong to partition %d", eid, p.ID)
	}
	r := attest.LocalReport{
		EnclaveID:   eid,
		EnclaveHash: enclaveHash,
		MOSHash:     p.mosHash,
		Nonce:       nonce,
	}
	return r, s.lsk.Seal(r), nil
}

// SetAttestFault installs (or, with nil, removes) a veto hook consulted on
// every local-attestation report request. Returning a non-nil error makes
// the report fail as if the attestation/provisioning infrastructure were
// unavailable; callers (sRPC establishment, replica reconnect loops) must
// treat it as transient and retry. The hook exists for the chaos harness
// and must be removed before an unrelated platform runs.
func (s *SPM) SetAttestFault(fn func(p *Partition) error) { s.attestFault = fn }
