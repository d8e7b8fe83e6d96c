package core

import (
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/mos"
	"cronus/internal/sim"
	"cronus/internal/wire"
)

func init() {
	// The session runtime library: the minimal CPU mEnclave image that
	// hosts an application's trusted CPU-side logic. Real deployments
	// load application .so files; the simulation's session body is Go
	// code executing with the enclave's identity.
	enclave.RegisterCPULibrary(&enclave.CPULibrary{
		Name: "cronus-session-runtime",
		Funcs: map[string]enclave.CPUFunc{
			"ping": func(p *sim.Proc, args []byte) ([]byte, error) {
				return args, nil
			},
			"seal_result": func(p *sim.Proc, args []byte) ([]byte, error) {
				// Placeholder for result sealing; payload echoed.
				return args, nil
			},
		},
	})
}

// SessionEDL is the mECall surface of the session's CPU mEnclave.
func SessionEDL() []byte {
	return enclave.BuildEDL(
		enclave.MECallSpec{Name: "ping", Async: false},
		enclave.MECallSpec{Name: "seal_result", Async: false},
	)
}

// Session is a protected application context (the paper's App-1 workflow,
// §III-D): a CPU mEnclave owned by the application, from which accelerator
// mEnclaves are created and driven over sRPC.
type Session struct {
	Platform *Platform
	Name     string

	owner *mos.Enclave // the CPU mEnclave (mE_A)
	EID   uint32
	Hash  attest.Measurement

	// App <-> CPU-enclave sealed channels (untrusted-memory path), and the
	// encoder Ping seals its request from when no other Ping holds it.
	tx  *attest.Channel
	rx  *attest.Channel
	req *wire.Encoder

	manifests map[string]attest.Measurement // created enclaves, for attestation
}

// NewSession creates the application's CPU mEnclave and the sealed channel
// to it.
func (pl *Platform) NewSession(p *sim.Proc, name string) (*Session, error) {
	files := map[string][]byte{
		"session.edl": SessionEDL(),
		"session.so":  enclave.BuildCPUImage("cronus-session-runtime"),
	}
	man := enclave.NewManifest("cpu", "session.edl", "session.so", files, enclave.Resources{Memory: "64M"})
	dh, err := attest.NewDHKey([]byte("app/" + name + pl.salt))
	if err != nil {
		return nil, err
	}
	res, err := pl.D.CreateEnclave(p, name, man, files, dh.Pub)
	if err != nil {
		return nil, err
	}
	secret, err := dh.Shared(res.DHPub)
	if err != nil {
		return nil, err
	}
	srv := pl.D.Server(res.EID)
	if srv == nil {
		return nil, fmt.Errorf("core: no endpoint for session enclave")
	}
	return &Session{
		Platform:  pl,
		Name:      name,
		owner:     srv.Enclave(),
		EID:       res.EID,
		Hash:      res.Hash,
		tx:        attest.NewChannel(secret, "owner->enclave"),
		rx:        attest.NewChannel(secret, "enclave->owner"),
		manifests: map[string]attest.Measurement{name: res.Hash},
	}, nil
}

// Ping exercises the sealed untrusted-memory mECall path end to end. The
// request is sealed from the session's request buffer, which the call holds
// until the enclave has answered; the reply is the caller's.
func (s *Session) Ping(p *sim.Proc, payload []byte) ([]byte, error) {
	buf := s.req
	s.req = nil
	if buf == nil {
		buf = new(wire.Encoder)
	}
	reply, err := s.Platform.D.InvokeSealed(p, s.EID, mos.SealRequest(s.tx, buf, "ping", payload))
	wire.Recycle(buf.Bytes())
	s.req = buf
	if err != nil {
		return nil, err
	}
	return mos.OpenReply(s.rx, reply)
}

// Owner exposes the session's CPU mEnclave — the trusted context from which
// accelerator enclaves are created. Code holding this reference models the
// application logic *inside* the enclave.
func (s *Session) Owner() *mos.Enclave { return s.owner }

// EnclaveMeasurements returns the measurements of every enclave the session
// created, keyed by name — the closure the user pins during remote
// attestation (§IV-A).
func (s *Session) EnclaveMeasurements() map[string]attest.Measurement {
	out := make(map[string]attest.Measurement, len(s.manifests))
	for k, v := range s.manifests {
		out[k] = v
	}
	return out
}

// Attest runs remote attestation for this session: the client verifies the
// platform report covers the session's enclaves, the partitions' mOSes and
// the frozen device tree.
func (s *Session) Attest(p *sim.Proc, nonce uint64) error {
	dt := s.Platform.SPM.DTHash()
	mosHashes := make(map[string]attest.Measurement)
	for _, part := range s.Platform.SPM.Partitions() {
		mosHashes[part.Name] = part.MOSHash()
	}
	return s.Platform.RemoteAttest(p, nonce, attest.Expected{
		MOSHashes:     mosHashes,
		EnclaveHashes: s.EnclaveMeasurements(),
		DTHash:        &dt,
		Nonce:         nonce,
	})
}
