package core

import (
	"cronus/internal/accel"
	"cronus/internal/mos/driver"
	"cronus/internal/npu"
	"cronus/internal/sim"
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
	spec := accelSpec{
		device: "npu", edlName: "npu.edl", edl: driver.NPUEDL(),
		memory: opts.Memory, partition: opts.Partition, name: opts.Name,
	}
	if len(opts.Program) > 0 {
		spec.imageName, spec.image = "prog.vta", opts.Program
	}
	enc, err := s.create(p, spec)
	if err != nil {
		return nil, err
	}
	client, err := srpc.Connect(p, s.owner, enc.eid, enc.secret, s.Platform.npuEDL, enc.expected,
		s.Platform.D, opts.RingPages)
	if err != nil {
		return nil, err
	}
	s.manifests[opts.Name] = enc.hash
	return &NPUConn{sess: s, client: client, EID: enc.eid, chunk: ringChunk(opts.RingPages)}, nil
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
	_, err := c.client.Call(p, driver.CallVTARun, driver.EncodeInsns(c.client.Args(), insns))
	return err
}

// Sync implements accel.NPU.
func (c *NPUConn) Sync(p *sim.Proc) error { return c.client.Barrier(p) }

// Close implements accel.NPU.
func (c *NPUConn) Close(p *sim.Proc) error { return c.client.Close(p) }
