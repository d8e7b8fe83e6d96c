// Package driver provides the Hardware Adaptation Layer implementations for
// CRONUS's three mEnclave kinds (§V-B): the CPU HAL (OPTEE-style), the GPU
// HAL (nouveau/gdev-style driving the functional GPU model) and the NPU HAL
// (the VTA fsim driver). Each also supplies the matching execution model
// (mEnclave runtime).
package driver

import (
	"cronus/internal/enclave"
	"cronus/internal/mos"
	"cronus/internal/sim"
)

// CPU is the CPU partition's HAL: no device to probe; the execution model is
// the libOS runtime running registered libraries.
type CPU struct {
	costs *sim.CostModel
}

// NewCPU creates the CPU HAL.
func NewCPU(costs *sim.CostModel) *CPU { return &CPU{costs: costs} }

// DeviceType implements mos.HAL.
func (c *CPU) DeviceType() string { return "cpu" }

// Init implements mos.HAL: the CPU needs no device bring-up.
func (c *CPU) Init(p *sim.Proc, sh *mos.Shim) error {
	p.Sleep(c.costs.EnclaveEntry)
	return nil
}

// NewModel implements mos.HAL.
func (c *CPU) NewModel(*sim.Proc) (enclave.Model, error) {
	return enclave.NewCPUModel(c.costs), nil
}
