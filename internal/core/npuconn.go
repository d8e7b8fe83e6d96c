package core

import (
	"cronus/internal/accel"
	"cronus/internal/mos/driver"
	"cronus/internal/npu"
	"cronus/internal/sim"
)

// NPUOptions configures an NPU mEnclave connection.
type NPUOptions struct {
	// Memory is the manifest resource cap (default "64M").
	Memory string
	// RingPages sizes the sRPC region (default 17).
	RingPages int
	// Name labels the enclave (default derived from the session).
	Name string
}

// NPUConn is a connected NPU mEnclave implementing accel.NPU. Instruction
// streams are submitted dynamically (Run) and verified by the mOS.
type NPUConn struct{ stream }

var _ accel.NPU = (*NPUConn)(nil)

// OpenNPU creates an NPU mEnclave and connects the sRPC stream.
func (s *Session) OpenNPU(p *sim.Proc, opts NPUOptions) (*NPUConn, error) {
	if opts.Memory == "" {
		opts.Memory = "64M"
	}
	if opts.Name == "" {
		opts.Name = s.Name + "/npu"
	}
	st, err := s.open(p, enclaveSpec{
		device: "npu", edlName: "npu.edl", edl: driver.NPUEDL(), table: s.Platform.npuEDL,
		memory: opts.Memory, name: opts.Name,
	}, memCalls{driver.CallVTAMemAlloc, driver.CallVTAHtoD, driver.CallVTADtoH}, opts.RingPages, 1, 0)
	if err != nil {
		return nil, err
	}
	return &NPUConn{st}, nil
}

// Run implements accel.NPU (asynchronous instruction stream submission).
func (c *NPUConn) Run(p *sim.Proc, insns []npu.Insn) error {
	_, err := c.client.Call(p, driver.CallVTARun, driver.EncodeInsns(c.client.Args(), insns))
	return err
}
