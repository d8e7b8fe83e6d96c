// Package normal models CRONUS's untrusted normal world (§III-A): the rich
// OS and the Enclave Dispatcher, which routes enclave requests to partitions,
// relays establishment messages and creates executor threads, each one
// spm.Call through the SMC gate. An Adversary, the malicious OS of §III-B,
// sees every call before the gate; the secure world must stay safe anyway.
package normal

import (
	"errors"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

// ErrDropped is the refusal of a call the normal OS would not relay.
var ErrDropped = errors.New("normal: call dropped by the OS")

// Gate is the SMC, spm.SPM.SMC, as an Adversary is handed it.
type Gate = func(*sim.Proc, spm.Call) (spm.Reply, error)

// Adversary is a malicious normal OS: Relay sees each call on its way to gate
// and may pass, drop, replay, alter, reroute or answer it without the gate.
type Adversary interface {
	Relay(p *sim.Proc, c spm.Call, gate Gate) (spm.Reply, error)
}

// RelayFunc adapts a function to Adversary.
type RelayFunc func(p *sim.Proc, c spm.Call, gate Gate) (spm.Reply, error)

// Relay implements Adversary.
func (f RelayFunc) Relay(p *sim.Proc, c spm.Call, gate Gate) (spm.Reply, error) { return f(p, c, gate) }

// Dispatcher is the normal world's Enclave Dispatcher: it routes requests to
// the partitions the device tree names (§III-A) and implements srpc.Transport.
type Dispatcher struct {
	Adversary Adversary // nil: an honest OS
	gate      Gate      // spm.SPM.SMC

	byName map[string]spm.PartitionID
	byType map[string][]spm.PartitionID
	rr     map[string]int  // round-robin cursor per device type
	first  spm.PartitionID // relays the platform report

	notifies srpc.Notifies // shared by this platform's clients and servers
	callHook srpc.CallHook // read by this platform's clients on every push

	nextStream uint64 // minted per platform, so co-resident ones stay deterministic
}

// NewDispatcher creates the dispatcher for a platform.
func NewDispatcher(s *spm.SPM) *Dispatcher {
	return &Dispatcher{
		gate:     s.SMC,
		byName:   make(map[string]spm.PartitionID),
		byType:   make(map[string][]spm.PartitionID),
		rr:       make(map[string]int),
		notifies: make(srpc.Notifies),
	}
}

// RegisterPartition records a partition's id, name and device type for routing.
func (d *Dispatcher) RegisterPartition(id spm.PartitionID, name, deviceType string) {
	if d.first == 0 {
		d.first = id
	}
	d.byName[name] = id
	d.byType[deviceType] = append(d.byType[deviceType], id)
}

// NextStreamID implements srpc.Transport: ids are minted per platform,
// starting at 1 (or at SetStreamBase+1 on multi-node fabrics).
func (d *Dispatcher) NextStreamID() uint64 {
	d.nextStream++
	return d.nextStream
}

// SetStreamBase offsets this platform's stream-id counter, before the first
// stream is minted: each node of a multi-node fabric gets a disjoint range
// (cluster.BootNodes assigns node<<16), so a stream id names one stream
// across the simulation, as chaos schedules and the trace flow map need.
func (d *Dispatcher) SetStreamBase(base uint64) {
	d.nextStream = base
}

// Notifies implements srpc.Transport.
func (d *Dispatcher) Notifies() srpc.Notifies { return d.notifies }

// CallHook implements srpc.Transport.
func (d *Dispatcher) CallHook() *srpc.CallHook { return &d.callHook }

// smc sends c through the Adversary, if there is one, to the gate.
func (d *Dispatcher) smc(p *sim.Proc, c spm.Call) (spm.Reply, error) {
	if d.Adversary != nil {
		return d.Adversary.Relay(p, c, d.gate)
	}
	return d.gate(p, c)
}

// CreateEnclave routes a creation request to a partition of the manifest's
// device type, round-robin across partitions of the same type (multi-GPU
// placement). The mOS enforces that the manifest matches its device, so
// misrouting fails safe.
func (d *Dispatcher) CreateEnclave(p *sim.Proc, name string, man enclave.Manifest, files map[string][]byte, callerDHPub []byte) (spm.Reply, error) {
	ids := d.byType[man.DeviceType]
	if len(ids) == 0 {
		return spm.Reply{}, fmt.Errorf("normal: %w hosts device type %q", spm.ErrNoPartition, man.DeviceType)
	}
	i := d.rr[man.DeviceType] % len(ids)
	d.rr[man.DeviceType]++
	return d.smc(p, spm.Call{Kind: spm.CallCreate, Part: ids[i], Name: name, Manifest: man, Files: files, DHPub: callerDHPub})
}

// CreateEnclaveAt routes creation to a named partition (explicit placement).
func (d *Dispatcher) CreateEnclaveAt(p *sim.Proc, partName, name string, man enclave.Manifest, files map[string][]byte, callerDHPub []byte) (spm.Reply, error) {
	id, ok := d.byName[partName]
	if !ok {
		return spm.Reply{}, fmt.Errorf("normal: %w %q", spm.ErrNoPartition, partName)
	}
	return d.smc(p, spm.Call{Kind: spm.CallCreate, Part: id, Name: name, Manifest: man, Files: files, DHPub: callerDHPub})
}

// InvokeSealed is the lock-step mECall path over untrusted memory: four
// world switches round trip, used by normal-world applications and by the
// HIX baseline.
func (d *Dispatcher) InvokeSealed(p *sim.Proc, eid uint32, msg attest.SealedMsg) (attest.SealedMsg, error) {
	r, err := d.smc(p, spm.Call{Kind: spm.CallInvoke, Part: partOf(eid), EID: eid, Msg: msg})
	return r.Msg, err
}

// BuildReport relays a remote attestation request into the secure world.
func (d *Dispatcher) BuildReport(p *sim.Proc, nonce uint64) (*attest.SignedReport, error) {
	r, err := d.smc(p, spm.Call{Kind: spm.CallReport, Part: d.first, Nonce: nonce})
	return r.Report, err
}

// LocalReport implements srpc.Transport.
func (d *Dispatcher) LocalReport(p *sim.Proc, eid uint32, nonce uint64) (attest.LocalReport, []byte, error) {
	r, err := d.smc(p, spm.Call{Kind: spm.CallLocalReport, Part: partOf(eid), EID: eid, Nonce: nonce})
	return r.Local, r.MAC, err
}

// StreamSetup implements srpc.Transport.
func (d *Dispatcher) StreamSetup(p *sim.Proc, eid uint32, streamID uint64, msg attest.SealedMsg) (attest.SealedMsg, error) {
	r, err := d.smc(p, spm.Call{Kind: spm.CallStreamSetup, Part: partOf(eid), EID: eid, Stream: streamID, Msg: msg})
	return r.Msg, err
}

// SpawnExecutor implements srpc.Transport: the normal world creates the
// executor thread, which immediately enters the secure world and loops
// inside the callee's partition.
func (d *Dispatcher) SpawnExecutor(p *sim.Proc, eid uint32, streamID uint64) error {
	_, err := d.smc(p, spm.Call{Kind: spm.CallSpawnExecutor, Part: partOf(eid), EID: eid, Stream: streamID})
	return err
}

// partOf is the partition an enclave id names: its top 8 bits.
func partOf(eid uint32) spm.PartitionID { return spm.PartitionID(eid >> 24) }
