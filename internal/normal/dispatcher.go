// Package normal models CRONUS's untrusted normal world (§III-A): the rich
// OS and the Enclave Dispatcher that routes enclave requests to partitions,
// relays establishment messages, and creates executor threads. Everything in
// this package is untrusted: the dispatcher exposes attack knobs that let
// tests play the malicious-OS role from the threat model (§III-B) —
// misrouting, tampering, replaying, dropping — and the secure world must
// stay safe regardless.
package normal

import (
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/mos"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

// Dispatcher is the normal world's Enclave Dispatcher. It records each
// partition's device type and mOS so requests can be routed (§III-A), and
// implements srpc.Transport.
type Dispatcher struct {
	K     *sim.Kernel
	SPM   *spm.SPM
	Costs *sim.CostModel

	byPart map[spm.PartitionID]*mos.MOS
	byType map[string][]*mos.MOS
	rr     map[string]int // round-robin cursor per device type

	servers  map[uint32]*srpc.Server
	notifies srpc.Notifies // shared by this platform's clients and servers
	callHook srpc.CallHook // read by this platform's clients on every push

	// nextStream is this platform's stream-id counter (srpc.Transport
	// requires per-platform minting so co-resident platforms stay
	// deterministic).
	nextStream uint64

	// Attack knobs — everything a malicious normal OS could do.
	RouteOverride   func(deviceType string) string                              // dispatch to the wrong partition
	TamperCreate    func(pub []byte) []byte                                     // swap the owner's DH key in a create
	TamperSetup     func(msg attest.SealedMsg) attest.SealedMsg                 // corrupt sRPC setup traffic
	ReplaySetup     bool                                                        // replay the previous setup message
	FakeLocalReport func(eid uint32, nonce uint64) (attest.LocalReport, []byte) // forge local attestation
	TamperInvoke    func(msg attest.SealedMsg) attest.SealedMsg                 // corrupt lock-step mECalls
	DropExecutor    bool                                                        // refuse to create executor threads
	lastSetup       map[uint32]setupRecord
}

type setupRecord struct {
	streamID uint64
	msg      attest.SealedMsg
}

// NewDispatcher creates the dispatcher for a platform.
func NewDispatcher(s *spm.SPM) *Dispatcher {
	return &Dispatcher{
		K:         s.K,
		SPM:       s,
		Costs:     s.Costs,
		byPart:    make(map[spm.PartitionID]*mos.MOS),
		byType:    make(map[string][]*mos.MOS),
		rr:        make(map[string]int),
		servers:   make(map[uint32]*srpc.Server),
		notifies:  make(srpc.Notifies),
		lastSetup: make(map[uint32]setupRecord),
	}
}

// RegisterMOS records a booted mOS (its partition's device type and usable
// resources) for routing.
func (d *Dispatcher) RegisterMOS(m *mos.MOS) {
	d.byPart[m.Part.ID] = m
	t := m.HAL.DeviceType()
	d.byType[t] = append(d.byType[t], m)
}

// NextStreamID implements srpc.Transport: ids are minted per platform,
// starting at 1 (or at SetStreamBase+1 on multi-node fabrics).
func (d *Dispatcher) NextStreamID() uint64 {
	d.nextStream++
	return d.nextStream
}

// SetStreamBase offsets this platform's stream-id counter. Multi-node
// fabrics boot several platforms into one simulation kernel; each node gets
// a disjoint stream-id range (cluster.BootNodes assigns node<<16) so a stream
// id names one stream across the simulation — chaos schedules and the trace
// flow map refer to streams by id. Only naming depends on it: every table
// keyed by stream id is per platform. Call it before the first stream is
// minted.
func (d *Dispatcher) SetStreamBase(base uint64) {
	d.nextStream = base
}

// Notifies implements srpc.Transport.
func (d *Dispatcher) Notifies() srpc.Notifies { return d.notifies }

// CallHook implements srpc.Transport.
func (d *Dispatcher) CallHook() *srpc.CallHook { return &d.callHook }

// mosFor locates the mOS hosting an enclave id.
func (d *Dispatcher) mosFor(eid uint32) (*mos.MOS, error) {
	m, ok := d.byPart[spm.PartitionID(eid>>24)]
	if !ok {
		return nil, fmt.Errorf("normal: no partition for eid %#x", eid)
	}
	return m, nil
}

// selectMOS picks a partition for a device type, round-robin across
// partitions of the same type (multi-GPU placement).
func (d *Dispatcher) selectMOS(deviceType string) (*mos.MOS, error) {
	if d.RouteOverride != nil {
		if name := d.RouteOverride(deviceType); name != "" {
			for _, m := range d.byPart {
				if m.Part.Name == name {
					return m, nil
				}
			}
			return nil, fmt.Errorf("normal: no partition %q", name)
		}
	}
	list := d.byType[deviceType]
	if len(list) == 0 {
		return nil, fmt.Errorf("normal: no partition hosts device type %q", deviceType)
	}
	i := d.rr[deviceType] % len(list)
	d.rr[deviceType]++
	return list[i], nil
}

// CreateEnclave routes a creation request to a partition of the manifest's
// device type and returns the creation result. The world switch into the
// secure world is charged; the mOS enforces that the manifest matches its
// device (so misrouting fails safe).
func (d *Dispatcher) CreateEnclave(p *sim.Proc, name string, man enclave.Manifest, files map[string][]byte, callerDHPub []byte) (*mos.CreateResult, error) {
	m, err := d.selectMOS(man.DeviceType)
	if err != nil {
		return nil, err
	}
	return d.createAt(p, m, name, man, files, callerDHPub)
}

// CreateEnclaveAt routes creation to a named partition (explicit placement).
func (d *Dispatcher) CreateEnclaveAt(p *sim.Proc, partName, name string, man enclave.Manifest, files map[string][]byte, callerDHPub []byte) (*mos.CreateResult, error) {
	for _, m := range d.byPart {
		if m.Part.Name == partName {
			return d.createAt(p, m, name, man, files, callerDHPub)
		}
	}
	return nil, fmt.Errorf("normal: no partition %q", partName)
}

func (d *Dispatcher) createAt(p *sim.Proc, m *mos.MOS, name string, man enclave.Manifest, files map[string][]byte, callerDHPub []byte) (*mos.CreateResult, error) {
	if d.TamperCreate != nil {
		callerDHPub = d.TamperCreate(callerDHPub)
	}
	mWorldSwitches.Add(2)
	p.Sleep(2 * d.Costs.WorldSwitch)
	res, e, err := m.EM.Create(p, name, man, files, callerDHPub)
	if err != nil {
		return nil, err
	}
	d.servers[res.EID] = srpc.NewServer(e, d.notifies)
	return res, nil
}

// InvokeSealed is the lock-step mECall path over untrusted memory: four
// world/context switches round trip, used by normal-world applications and
// by the HIX baseline.
func (d *Dispatcher) InvokeSealed(p *sim.Proc, eid uint32, msg attest.SealedMsg) (attest.SealedMsg, error) {
	if d.TamperInvoke != nil {
		msg = d.TamperInvoke(msg)
	}
	m, err := d.mosFor(eid)
	if err != nil {
		return attest.SealedMsg{}, err
	}
	mWorldSwitches.Add(2)
	p.Sleep(2*d.Costs.WorldSwitch + d.Costs.UntrustedMsg)
	reply, err := m.EM.InvokeSealed(p, eid, msg)
	if err != nil {
		return attest.SealedMsg{}, err
	}
	mWorldSwitches.Add(2)
	p.Sleep(2 * d.Costs.WorldSwitch)
	return reply, nil
}

// BuildReport relays a remote attestation request into the secure world.
func (d *Dispatcher) BuildReport(p *sim.Proc, nonce uint64) *attest.SignedReport {
	mWorldSwitches.Add(2)
	p.Sleep(2 * d.Costs.WorldSwitch)
	enclaves := make(map[string]attest.Measurement)
	for _, m := range d.byPart {
		for n, h := range m.EM.Measurements() {
			enclaves[n] = h
		}
	}
	return d.SPM.BuildReport(enclaves, nonce)
}

// Server returns the sRPC endpoint for an enclave (nil if unknown).
func (d *Dispatcher) Server(eid uint32) *srpc.Server { return d.servers[eid] }

// --- srpc.Transport implementation -------------------------------------

// LocalReport implements srpc.Transport.
func (d *Dispatcher) LocalReport(p *sim.Proc, eid uint32, nonce uint64) (attest.LocalReport, []byte, error) {
	if d.FakeLocalReport != nil {
		r, mac := d.FakeLocalReport(eid, nonce)
		return r, mac, nil
	}
	m, err := d.mosFor(eid)
	if err != nil {
		return attest.LocalReport{}, nil, err
	}
	mWorldSwitches.Add(2)
	p.Sleep(2 * d.Costs.WorldSwitch)
	return m.EM.LocalReport(eid, nonce)
}

// StreamSetup implements srpc.Transport.
func (d *Dispatcher) StreamSetup(p *sim.Proc, eid uint32, streamID uint64, msg attest.SealedMsg) (attest.SealedMsg, error) {
	if d.ReplaySetup {
		if old, ok := d.lastSetup[eid]; ok {
			msg, streamID = old.msg, old.streamID
		}
	}
	d.lastSetup[eid] = setupRecord{streamID: streamID, msg: msg}
	if d.TamperSetup != nil {
		msg = d.TamperSetup(msg)
	}
	srv := d.servers[eid]
	if srv == nil {
		return attest.SealedMsg{}, fmt.Errorf("normal: no sRPC endpoint for eid %#x", eid)
	}
	mWorldSwitches.Add(2)
	p.Sleep(2 * d.Costs.WorldSwitch)
	return srv.HandleSetup(p, streamID, msg)
}

// SpawnExecutor implements srpc.Transport: the normal world creates the
// executor thread, which immediately enters the secure world and loops
// inside the callee's partition.
func (d *Dispatcher) SpawnExecutor(p *sim.Proc, eid uint32, streamID uint64) error {
	if d.DropExecutor {
		return fmt.Errorf("normal: executor creation refused (malicious OS)")
	}
	srv := d.servers[eid]
	if srv == nil {
		return fmt.Errorf("normal: no sRPC endpoint for eid %#x", eid)
	}
	m, err := d.mosFor(eid)
	if err != nil {
		return err
	}
	d.K.Spawn(fmt.Sprintf("executor-%#x-%d", eid, streamID), func(tp *sim.Proc) {
		m.Part.Register(tp)
		defer m.Part.Unregister(tp)
		mWorldSwitches.Inc()
		tp.Sleep(d.Costs.WorldSwitch)
		srv.RunExecutor(tp, streamID)
	})
	return nil
}
