package mos

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/hw"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/trace"
	"cronus/internal/wire"
)

// EnclaveManager loads, measures and runs the mEnclaves of one mOS (§IV-A).
type EnclaveManager struct {
	mos       *MOS
	enclaves  map[uint32]*Enclave
	nextLocal uint32
	epoch     uint64
}

func newEnclaveManager(m *MOS) *EnclaveManager {
	return &EnclaveManager{
		mos:      m,
		enclaves: make(map[uint32]*Enclave),
		epoch:    m.Part.Epoch(),
	}
}

// Enclave is one loaded mEnclave: the black-box executor ⟨mECalls, state⟩
// plus the bookkeeping the Enclave Manager needs (ownership secret, resource
// accounting, measurement).
type Enclave struct {
	EID      uint32
	Name     string
	Manifest enclave.Manifest
	EDL      *enclave.EDL
	Hash     attest.Measurement
	Model    enclave.Model

	em     *EnclaveManager
	secret []byte // secret_dhke with the owner (§IV-A)
	// rxOwner and txOwner are the sealed mECall path's channels with the
	// owner, built by the first sealed call: a streamed enclave never
	// reads them.
	rxOwner *attest.Channel
	txOwner *attest.Channel
	memCap  uint64
	memUsed uint64
	dead    bool

	// grants tracks sRPC shared-memory grants owned by this enclave so
	// enclave failure can revoke them (§IV-D "Handling mEnclave failures").
	grants []int
	// spareReply is a sealed call's reply encoder between calls. A call
	// takes it (or a new one, if another call holds it) and puts it back
	// emptied, its buffer gone with the reply.
	spareReply *wire.Encoder
}

// ErrWrongPartition is Create's refusal of a manifest whose device type is not
// this mOS's: the untrusted OS dispatched the request to the wrong partition
// (§III-B).
var ErrWrongPartition = errors.New("wrong partition")

// ErrNoEnclave refuses a call naming an enclave this mOS does not host.
var ErrNoEnclave = errors.New("no enclave")

// Create implements the mEnclave creation flow (§IV-A): the Enclave Manager
// verifies the manifest against the images, allocates resources, loads the
// execution model (me_create), performs the Diffie-Hellman exchange with the
// caller, and mints an eid whose top 8 bits are the mOS id.
func (em *EnclaveManager) Create(p *sim.Proc, name string, man enclave.Manifest, files map[string][]byte, callerDHPub []byte) (spm.Reply, *Enclave, error) {
	if em.mos.Part.State() != spm.PartReady {
		return spm.Reply{}, nil, &spm.NotReadyError{Msg: fmt.Sprintf("mos: partition %q not ready", em.mos.Part.Name)}
	}
	if man.DeviceType != em.mos.HAL.DeviceType() {
		return spm.Reply{}, nil, fmt.Errorf("mos: manifest device type %q does not match this mOS (%q) — %w",
			man.DeviceType, em.mos.HAL.DeviceType(), ErrWrongPartition)
	}
	if err := man.VerifyImages(files); err != nil {
		return spm.Reply{}, nil, err
	}
	edl, err := enclave.ParseEDL(files[man.MECalls])
	if err != nil {
		return spm.Reply{}, nil, err
	}
	memCap, err := man.Resources.MemoryBytes()
	if err != nil {
		return spm.Reply{}, nil, err
	}
	model, err := em.mos.HAL.NewModel(p)
	if err != nil {
		return spm.Reply{}, nil, err
	}
	var image []byte
	if man.Image != "" {
		image = files[man.Image]
	}
	if err := model.Create(p, image); err != nil {
		return spm.Reply{}, nil, err
	}
	// Measurement covers the manifest and all images (runtime + code).
	hash, totalBytes := man.MeasureCounted(files)
	for _, b := range files {
		totalBytes += len(b)
	}
	p.Sleep(em.mos.Costs.Hash(totalBytes))

	em.nextLocal++
	eid := uint32(em.mos.Part.ID)<<24 | (em.nextLocal & 0xffffff)

	// Diffie-Hellman with the caller establishes secret_dhke; every later
	// message over untrusted memory is authenticated with it.
	var seed [16]byte
	binary.LittleEndian.PutUint32(seed[:], eid)
	binary.LittleEndian.PutUint64(seed[4:], em.epoch)
	copy(seed[12:], em.mos.Part.Name)
	dh, err := attest.NewDHKey(append(seed[:], em.mos.SPM.NodeSalt()...))
	if err != nil {
		return spm.Reply{}, nil, err
	}
	secret, err := dh.Shared(callerDHPub)
	if err != nil {
		return spm.Reply{}, nil, fmt.Errorf("mos: caller DH key invalid: %w", err)
	}
	p.Sleep(em.mos.Costs.DhkeHandshake)

	e := &Enclave{
		EID:      eid,
		Name:     name,
		Manifest: man,
		EDL:      edl,
		Hash:     hash,
		Model:    model,
		em:       em,
		secret:   secret,
		memCap:   memCap,
	}
	em.enclaves[eid] = e
	mEnclavesMade.Inc()
	return spm.Reply{EID: eid, DHPub: dh.Pub, Hash: hash}, e, nil
}

// Get returns a live enclave by id.
func (em *EnclaveManager) Get(eid uint32) (*Enclave, bool) {
	e, ok := em.enclaves[eid]
	if !ok || e.dead {
		return nil, false
	}
	return e, true
}

// Measurements returns name -> hash for every live enclave (for the
// platform attestation report).
func (em *EnclaveManager) Measurements() map[string]attest.Measurement {
	out := make(map[string]attest.Measurement, len(em.enclaves))
	for _, e := range em.enclaves {
		if !e.dead {
			out[e.Name] = e.Hash
		}
	}
	return out
}

// LocalReport produces an SPM-sealed local attestation report for one of
// this mOS's enclaves.
func (em *EnclaveManager) LocalReport(eid uint32, nonce uint64) (attest.LocalReport, []byte, error) {
	e, ok := em.Get(eid)
	if !ok {
		return attest.LocalReport{}, nil, fmt.Errorf("mos: %w %#x", ErrNoEnclave, eid)
	}
	return em.mos.SPM.LocalReportFor(em.mos.Part, eid, e.Hash, nonce)
}

// InvokeSealed executes an mECall arriving over untrusted memory. The
// message must be sealed with secret_dhke — this is what enforces "only the
// owner can invoke mECall of the created mEnclave" (§IV-A) — and the reply
// is sealed on the return channel. Payload format: wire(name, args).
//
// The request is decoded in place: the model sees args as a sub-slice of
// msg.Payload (the MAC was computed over exactly those bytes), so the caller
// must leave the message alone until InvokeSealed returns, and the mECall's
// name is resolved against the EDL from its wire bytes. The reply is a fresh
// message the caller owns — the only storage a sealed call allocates.
func (em *EnclaveManager) InvokeSealed(p *sim.Proc, eid uint32, msg attest.SealedMsg) (attest.SealedMsg, error) {
	e, ok := em.Get(eid)
	if !ok {
		return attest.SealedMsg{}, fmt.Errorf("mos: %w %#x", ErrNoEnclave, eid)
	}
	p.Sleep(em.mos.Costs.MACFixed) // verify request MAC
	if e.rxOwner == nil {
		e.rxOwner, e.txOwner = attest.NewChannelPair(e.secret, "owner->enclave", "enclave->owner")
	}
	payload, err := e.rxOwner.Open(msg)
	if err != nil {
		return attest.SealedMsg{}, fmt.Errorf("mos: mECall rejected: %w", err)
	}
	d := wire.NewDecoder(payload)
	nameBytes := d.StrRef()
	args := d.BlobRef()
	if d.Err() != nil {
		return attest.SealedMsg{}, d.Err()
	}
	// A declared name is the EDL's own string; only an undeclared one, which
	// Invoke refuses, is built from the bytes.
	spec, ok := e.EDL.LookupBytes(nameBytes)
	if !ok {
		spec.Name = string(nameBytes)
	}
	// The reply encoder is the enclave's spare when no other sealed call
	// holds it. Its buffer is sized for status + length prefix + a result as
	// large as the arguments (an echo, a transform in place; anything larger
	// grows it) and leaves with the reply.
	reply := e.spareReply
	e.spareReply = nil
	if reply == nil {
		reply = new(wire.Encoder)
	}
	reply.Grow(8 + len(args)).U32(0)
	mark := reply.BeginBlob()
	if err := e.Invoke(p, spec.Name, args, reply); err != nil {
		reply.Reset().U32(1).Str(err.Error())
	} else {
		reply.EndBlob(mark)
	}
	p.Sleep(em.mos.Costs.MACFixed) // seal reply
	out := e.txOwner.Seal(reply.Bytes())
	*reply = wire.Encoder{}
	e.spareReply = reply
	return out, nil
}

// SealRequest is the owner-side helper pairing with InvokeSealed: it encodes
// wire(name, args) into e, emptied first, and seals it. args is copied once,
// into e; the message's payload is e's storage, so e must be left alone until
// the message has been delivered.
func SealRequest(ch *attest.Channel, e *wire.Encoder, name string, args []byte) attest.SealedMsg {
	return ch.Seal(e.Reset().Grow(8 + len(name) + len(args)).Str(name).Blob(args).Bytes())
}

// OpenReply is the owner-side helper decoding an InvokeSealed reply. The
// result aliases msg.Payload — the reply message is the caller's, so the
// bytes are too.
func OpenReply(ch *attest.Channel, msg attest.SealedMsg) ([]byte, error) {
	payload, err := ch.Open(msg)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(payload)
	if code := d.U32(); code != 0 {
		return nil, fmt.Errorf("mECall failed: %s", d.Str())
	}
	res := d.BlobRef()
	return res, d.Err()
}

// Invoke dispatches an mECall arriving from outside the enclave (the sealed
// untrusted-memory path): it pays the enclave entry plus dispatch. args and
// res follow enclave.Model.Call's lifetime rule.
func (e *Enclave) Invoke(p *sim.Proc, name string, args []byte, res *wire.Encoder) error {
	if e.dead {
		return fmt.Errorf("mos: enclave %#x is dead", e.EID)
	}
	if _, ok := e.EDL.Lookup(name); !ok {
		return fmt.Errorf("mos: mECall %q not declared in EDL of enclave %#x", name, e.EID)
	}
	mSealedCalls.Inc()
	mCtxSwitchS2.Add(2) // enclave entry + exit each cross S-EL2
	p.Sleep(e.em.mos.Costs.EnclaveEntry + e.em.mos.Costs.RPCDispatch)
	return e.Model.Call(p, name, args, res)
}

// InvokeStreamed dispatches an mECall from the sRPC executor thread, which
// already executes inside the enclave (§IV-C: the execution loop runs in
// mE_B), so only the record dispatch is charged — this is precisely the
// context-switch saving that makes sRPC fast. args is the executor's staging
// buffer and res its reply encoder (enclave.Model.Call's lifetime rule).
func (e *Enclave) InvokeStreamed(p *sim.Proc, name string, args []byte, res *wire.Encoder) error {
	if e.dead {
		return fmt.Errorf("mos: enclave %#x is dead", e.EID)
	}
	if _, ok := e.EDL.Lookup(name); !ok {
		return fmt.Errorf("mos: mECall %q not declared in EDL of enclave %#x", name, e.EID)
	}
	mStreamedCalls.Inc()
	// The dispatch span sits between the executor's exec span and the
	// device hooks in the causal tree (the proc carries the span context).
	// The name concatenation only happens when tracing is on.
	if tc := trace.Of(p.Kernel()); tc != nil {
		defer tc.Span(p, "mos", e.em.mos.Part.Name, "dispatch "+name)()
	}
	p.Sleep(e.em.mos.Costs.RPCDispatch)
	return e.Model.Call(p, name, args, res)
}

// Secret exposes secret_dhke to the in-partition runtime (sRPC dCheck).
// Nothing outside the secure world can reach this.
func (e *Enclave) Secret() []byte { return e.secret }

// AllocShared allocates trusted pages for sRPC shared memory, charged
// against the enclave's manifest memory cap.
func (e *Enclave) AllocShared(p *sim.Proc, npages int) (uint64, error) {
	need := uint64(npages) * hw.PageSize
	if e.memCap > 0 && e.memUsed+need > e.memCap {
		return 0, fmt.Errorf("mos: enclave %#x memory cap exceeded (%d + %d > %d)", e.EID, e.memUsed, need, e.memCap)
	}
	ipa, err := e.em.mos.Shim.AllocPages(p, npages)
	if err != nil {
		return 0, err
	}
	e.memUsed += need
	return ipa, nil
}

// MemUsed returns the trusted pages, in bytes, that AllocShared has charged
// against the enclave's memory cap and that have not been returned.
func (e *Enclave) MemUsed() uint64 { return e.memUsed }

// ShareWith allocates npages of trusted memory (AllocShared), shares them
// with peer through the SPM and records the grant, so enclave failure revokes
// it. A refused share — the peer failing or not yet ready — returns the pages,
// so a failed call leaves the allocator and the memory cap as it found them.
func (e *Enclave) ShareWith(p *sim.Proc, npages int, peer *spm.Partition) (ipa, peerIPA uint64, gid int, err error) {
	ipa, err = e.AllocShared(p, npages)
	if err != nil {
		return 0, 0, 0, err
	}
	m := e.em.mos
	peerIPA, gid, err = m.SPM.Share(m.Part, ipa, npages, peer)
	if err != nil {
		e.freeShared(ipa, npages)
		return 0, 0, 0, err
	}
	e.grants = append(e.grants, gid)
	return ipa, peerIPA, gid, nil
}

// ReleaseShared ends a share of npages ShareWith took at ipa: the grant is
// dissolved (spm.Unshare, which the failure paths may already have done) and
// leaves the enclave's list, and the pages go back to the allocator and under
// the memory cap (freeShared).
func (e *Enclave) ReleaseShared(gid int, ipa uint64, npages int) {
	m := e.em.mos
	_ = m.SPM.Unshare(gid)
	for i, g := range e.grants {
		if g == gid {
			e.grants = append(e.grants[:i], e.grants[i+1:]...)
			break
		}
	}
	e.freeShared(ipa, npages)
}

// freeShared returns npages AllocShared took at ipa to the allocator and
// under the memory cap — unless the partition has left the incarnation the
// enclave lives in: ipa may then name a newer allocation, and the recovery
// that ended the incarnation scrubbed and freed the pages already.
func (e *Enclave) freeShared(ipa uint64, npages int) {
	m := e.em.mos
	if m.Part.Epoch() != e.em.epoch {
		return
	}
	m.SPM.FreeMem(m.Part, ipa, npages)
	e.memUsed -= uint64(npages) * hw.PageSize
}

// View returns the memory view sRPC uses for this enclave's partition.
func (e *Enclave) View() *spm.View { return e.em.mos.Shim.View() }

// MOS returns the hosting MicroOS.
func (e *Enclave) MOS() *MOS { return e.em.mos }

// Kill tears down a single failed mEnclave (§IV-D "Handling mEnclave
// failures"): its device state is destroyed and every shared-memory grant it
// owned is revoked so communicating mEnclaves are notified by trap.
func (e *Enclave) Kill(p *sim.Proc) {
	if e.dead {
		return
	}
	e.dead = true
	mEnclavesDead.Inc()
	e.Model.Destroy(p)
	for _, gid := range e.grants {
		_ = e.em.mos.SPM.RevokeGrant(gid, e.Name)
	}
	delete(e.em.enclaves, e.EID)
}
