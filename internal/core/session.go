package core

import (
	"fmt"
	"maps"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/mos"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
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

// sessionEDL is the text of SessionEDL, what enclave.BuildEDL writes for its
// table.
const sessionEDL = "// CRONUS EDL\n" +
	"mecall ping sync\n" +
	"mecall seal_result sync\n"

// SessionEDL returns the mECall surface of the session's CPU mEnclave. The
// slice is the caller's.
func SessionEDL() []byte { return []byte(sessionEDL) }

// Session is a protected application context (the paper's App-1 workflow,
// §III-D): a CPU mEnclave owned by the application, from which accelerator
// mEnclaves are created and driven over sRPC.
type Session struct {
	Platform *Platform
	Name     string

	owner *mos.Enclave // the CPU mEnclave (mE_A)
	EID   uint32
	Hash  attest.Measurement

	// dh is the owner's DH key. Its Pub goes with every create the session
	// makes — its own CPU mEnclave's and each accelerator mEnclave's — and
	// each secret_dhke is its agreement with the key the mOS derives fresh
	// for that enclave (§IV-A).
	dh *attest.DHKey

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
	srv := pl.Server(res.EID)
	if srv == nil {
		return nil, fmt.Errorf("core: %w for session enclave %#x", srpc.ErrNoEndpoint, res.EID)
	}
	tx, rx := attest.NewChannelPair(secret, "owner->enclave", "enclave->owner")
	return &Session{
		Platform:  pl,
		Name:      name,
		owner:     srv.Enclave(),
		EID:       res.EID,
		Hash:      res.Hash,
		dh:        dh,
		tx:        tx,
		rx:        rx,
		manifests: map[string]attest.Measurement{name: res.Hash},
	}, nil
}

// accelSpec is what an accelerator mEnclave is built from: its manifest's
// device type, EDL file and image, memory cap, and where it is placed.
type accelSpec struct {
	device    string
	edlName   string
	edl       []byte
	imageName string // "" = no image
	image     []byte
	memory    string
	partition string // "" = the dispatcher places it
	name      string
}

// accelEnclave is a created accelerator mEnclave: what its streams are
// established with.
type accelEnclave struct {
	eid      uint32
	hash     attest.Measurement // as the mOS measured it
	secret   []byte             // secret_dhke
	expected srpc.Expected      // what local attestation must report
}

// create is the handshake every accelerator connection opens with: it builds
// the manifest, has the mOS create the enclave with the session's owner key,
// and derives secret_dhke from the key the mOS answers with. The enclave
// measurement the streams expect is computed here from what was sent, and
// the mOS measurement from the partition the enclave id names.
func (s *Session) create(p *sim.Proc, spec accelSpec) (accelEnclave, error) {
	files := map[string][]byte{spec.edlName: spec.edl}
	if spec.imageName != "" {
		files[spec.imageName] = spec.image
	}
	man := enclave.NewManifest(spec.device, spec.edlName, spec.imageName, files, enclave.Resources{Memory: spec.memory})
	var res spm.Reply
	var err error
	if spec.partition != "" {
		res, err = s.Platform.D.CreateEnclaveAt(p, spec.partition, spec.name, man, files, s.dh.Pub)
	} else {
		res, err = s.Platform.D.CreateEnclave(p, spec.name, man, files, s.dh.Pub)
	}
	if err != nil {
		return accelEnclave{}, err
	}
	secret, err := s.dh.Shared(res.DHPub)
	if err != nil {
		return accelEnclave{}, err
	}
	part, ok := s.Platform.SPM.Partition(spm.PartitionID(res.EID >> 24))
	if !ok {
		return accelEnclave{}, fmt.Errorf("core: %w for eid %#x", spm.ErrNoPartition, res.EID)
	}
	return accelEnclave{
		eid:      res.EID,
		hash:     res.Hash,
		secret:   secret,
		expected: srpc.Expected{EnclaveHash: man.Measure(files), MOSHash: part.MOSHash()},
	}, nil
}

// ringChunk is the transfer chunk for a ring of pages (0 or 1 = the
// default): a quarter of its slot area, so streaming overlaps, and never
// below one slot.
func ringChunk(pages int) int {
	if pages < 2 {
		pages = srpc.DefaultPages
	}
	return max((pages-1)*4096/4, srpc.SlotSize)
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
	return maps.Clone(s.manifests)
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
