package spm

import (
	"errors"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/metrics"
	"cronus/internal/sim"
)

// mWorldSwitches counts the world switches SMC charges to virtual time.
var mWorldSwitches = metrics.Default.Counter("spm.world_switches")

// ErrNoPartition is a routing miss: no partition of that name, type or id.
var ErrNoPartition = errors.New("no partition")

// CallKind is the closed set of messages the normal world sends the secure world.
type CallKind uint8

// The SMC kinds.
const (
	CallCreate        CallKind = iota + 1 // create an mEnclave
	CallInvoke                            // a sealed mECall over untrusted memory
	CallLocalReport                       // an SPM-sealed local attestation report
	CallReport                            // the signed platform report
	CallStreamSetup                       // a sealed sRPC stream-setup request
	CallSpawnExecutor                     // enter the partition as a stream's executor
)

// Call is one normal→secure message to partition Part. A create carries
// Name, Manifest, Files and DHPub; the other kinds what their name says.
type Call struct {
	Kind     CallKind
	Part     PartitionID
	EID      uint32
	Stream   uint64
	Nonce    uint64
	Msg      attest.SealedMsg
	DHPub    []byte
	Name     string
	Manifest enclave.Manifest
	Files    map[string][]byte
}

// Reply is the secure world's answer: a create's enclave id, mOS DH public
// half and measurement; a sealed reply; a local report and its MAC; a signed
// report; or a spawn's executor loop, which SMC runs in the partition.
type Reply struct {
	EID    uint32
	DHPub  []byte
	Hash   attest.Measurement
	Msg    attest.SealedMsg
	Local  attest.LocalReport
	MAC    []byte
	Report *attest.SignedReport
	Run    func(*sim.Proc)
}

// Handler is the secure side of one partition's SMC entry.
type Handler interface {
	Handle(p *sim.Proc, c Call) (Reply, error)
}

// RegisterHandler makes h the entry SMC calls for partition id.
func (s *SPM) RegisterHandler(id PartitionID, h Handler) { s.handlers[id] = h }

// SMC is the one normal→secure transition. It refuses a target without a
// handler before charging anything, then charges 2·WorldSwitch before the
// call; an invoke UntrustedMsg more before and 2·WorldSwitch after a success;
// a spawn nothing, while its executor pays one WorldSwitch entering the
// partition, with which it registers so a failure kills it.
func (s *SPM) SMC(p *sim.Proc, c Call) (Reply, error) {
	h := s.handlers[c.Part]
	if h == nil {
		return Reply{}, fmt.Errorf("spm: %w %d", ErrNoPartition, c.Part)
	}
	if c.Kind == CallSpawnExecutor {
		r, err := h.Handle(p, c)
		if err != nil {
			return Reply{}, err
		}
		part, run := s.parts[c.Part], r.Run
		s.K.Spawn(fmt.Sprintf("executor-%#x-%d", c.EID, c.Stream), func(tp *sim.Proc) {
			part.Register(tp)
			defer part.Unregister(tp)
			mWorldSwitches.Inc()
			tp.Sleep(s.Costs.WorldSwitch)
			run(tp)
		})
		return Reply{}, nil
	}
	cost := 2 * s.Costs.WorldSwitch
	if c.Kind == CallInvoke {
		cost += s.Costs.UntrustedMsg
	}
	mWorldSwitches.Add(2)
	p.Sleep(cost)
	r, err := h.Handle(p, c)
	if err == nil && c.Kind == CallInvoke {
		mWorldSwitches.Add(2)
		p.Sleep(2 * s.Costs.WorldSwitch)
	}
	return r, err
}
