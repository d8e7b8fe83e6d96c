package core

import (
	"fmt"

	"cronus/internal/accel"
	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/mos/driver"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

// NPUOptions configures an NPU mEnclave connection.
type NPUOptions struct {
	// Program is an optional pre-verified instruction image
	// (driver.EncodeInsns); streams may also be submitted dynamically.
	Program []byte
	// Memory is the manifest resource cap (default "64M").
	Memory string
	// RingPages sizes the sRPC region (default 17).
	RingPages int
	// Partition pins placement; Name labels the enclave.
	Partition string
	Name      string
}

// NPUConn is a connected NPU mEnclave implementing accel.NPU.
type NPUConn struct {
	sess   *Session
	client *srpc.Client
	EID    uint32
	chunk  int
}

var _ accel.NPU = (*NPUConn)(nil)

// OpenNPU creates an NPU mEnclave and connects the sRPC stream.
func (s *Session) OpenNPU(p *sim.Proc, opts NPUOptions) (*NPUConn, error) {
	if opts.Memory == "" {
		opts.Memory = "64M"
	}
	if opts.Name == "" {
		opts.Name = s.Name + "/npu"
	}
	files := map[string][]byte{
		"npu.edl": driver.NPUEDL(),
	}
	imageName := ""
	if len(opts.Program) > 0 {
		files["prog.vta"] = opts.Program
		imageName = "prog.vta"
	}
	man := enclave.NewManifest("npu", "npu.edl", imageName, files, enclave.Resources{Memory: opts.Memory})
	dh, err := attest.NewDHKey([]byte(s.Name + "/" + opts.Name + s.Platform.salt))
	if err != nil {
		return nil, err
	}
	var eid uint32
	var dhPub []byte
	var hash attest.Measurement
	if opts.Partition != "" {
		r, err := s.Platform.D.CreateEnclaveAt(p, opts.Partition, opts.Name, man, files, dh.Pub)
		if err != nil {
			return nil, err
		}
		eid, dhPub, hash = r.EID, r.DHPub, r.Hash
	} else {
		r, err := s.Platform.D.CreateEnclave(p, opts.Name, man, files, dh.Pub)
		if err != nil {
			return nil, err
		}
		eid, dhPub, hash = r.EID, r.DHPub, r.Hash
	}
	secret, err := dh.Shared(dhPub)
	if err != nil {
		return nil, err
	}
	edl, err := enclave.ParseEDL(files["npu.edl"])
	if err != nil {
		return nil, err
	}
	part, ok := s.Platform.SPM.Partition(spm.PartitionID(eid >> 24))
	if !ok {
		return nil, fmt.Errorf("core: partition vanished for eid %#x", eid)
	}
	client, err := srpc.Connect(p, s.owner, eid, secret, edl,
		srpc.Expected{EnclaveHash: man.Measure(files), MOSHash: part.MOSHash()},
		s.Platform.D, opts.RingPages)
	if err != nil {
		return nil, err
	}
	s.manifests[opts.Name] = hash
	pages := opts.RingPages
	if pages < 2 {
		pages = srpc.DefaultPages
	}
	chunk := (pages - 1) * 4096 / 4
	if chunk < srpc.SlotSize {
		chunk = srpc.SlotSize
	}
	return &NPUConn{sess: s, client: client, EID: eid, chunk: chunk}, nil
}

// MemAlloc implements accel.NPU.
func (c *NPUConn) MemAlloc(p *sim.Proc, n uint64) (uint64, error) {
	res, err := c.client.Call(p, driver.CallVTAMemAlloc, driver.EncodeMemAlloc(n))
	if err != nil {
		return 0, err
	}
	return driver.DecodePtr(res)
}

// HtoD implements accel.NPU (asynchronous, chunked).
func (c *NPUConn) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	return streamHtoD(p, c.client, driver.CallVTAHtoD, c.chunk, dst, data)
}

// DtoH implements accel.NPU (synchronous, chunked).
func (c *NPUConn) DtoH(p *sim.Proc, src uint64, n int) ([]byte, error) {
	return streamDtoH(p, c.client, driver.CallVTADtoH, c.chunk, src, n)
}

// Run implements accel.NPU (asynchronous instruction stream submission).
func (c *NPUConn) Run(p *sim.Proc, insns []npu.Insn) error {
	_, err := c.client.Call(p, driver.CallVTARun, driver.EncodeInsns(insns))
	return err
}

// Sync implements accel.NPU.
func (c *NPUConn) Sync(p *sim.Proc) error { return c.client.Barrier(p) }

// Close implements accel.NPU.
func (c *NPUConn) Close(p *sim.Proc) error { return c.client.Close(p) }
