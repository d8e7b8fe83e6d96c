// Package baseline implements the three comparison systems of the paper's
// evaluation (§VI-A) behind the same accel interfaces CRONUS uses, so every
// workload runs unmodified on all four systems:
//
//   - Native: unprotected Linux + gdev — direct device access, no TEE costs.
//   - TrustZone: the monolithic secure-world OS (OPTEE-style) with all
//     drivers inside one TEE — driver calls are intra-world function calls
//     (fast), but there is no fault or security isolation: recovery from any
//     driver fault is a whole-machine reboot.
//   - HIX-TrustZone: the paper's HIX emulation — an application enclave and
//     a GPU-driver enclave communicating by lock-step encrypted RPC over
//     untrusted memory, one RPC per hardware control message.
package baseline

import (
	"fmt"

	"cronus/internal/accel"
	"cronus/internal/gpu"
	"cronus/internal/npu"
	"cronus/internal/sim"
)

// System identifies one evaluated system.
type System string

// The four systems of the evaluation.
const (
	Native    System = "linux"
	TrustZone System = "trustzone"
	HIX       System = "hix-trustzone"
	CRONUS    System = "cronus"
)

// RecoveryTime returns each system's recovery cost after an accelerator
// stack fault (§VI-D): CRONUS restarts one mOS; the monolithic systems
// reboot the whole machine.
func RecoveryTime(s System, c *sim.CostModel) sim.Duration {
	switch s {
	case CRONUS:
		return c.DeviceClear + c.MOSRestart
	case Native, TrustZone, HIX:
		return c.MachineReboot
	}
	return 0
}

// NativeCUDA is unprotected gdev: direct driver access.
type NativeCUDA struct {
	Ctx   *gpu.Context
	Costs *sim.CostModel
	dev   *gpu.Device
}

var _ accel.CUDA = (*NativeCUDA)(nil)

// NewNativeCUDA creates a native context on the device.
func NewNativeCUDA(d *gpu.Device, costs *sim.CostModel, cubin []byte) (*NativeCUDA, error) {
	ctx := d.CreateContext()
	if err := ctx.LoadModule(cubin); err != nil {
		return nil, err
	}
	return &NativeCUDA{Ctx: ctx, Costs: costs, dev: d}, nil
}

// MemAlloc implements accel.CUDA.
func (n *NativeCUDA) MemAlloc(p *sim.Proc, size uint64) (uint64, error) {
	return n.Ctx.MemAlloc(size)
}

// MemFree implements accel.CUDA.
func (n *NativeCUDA) MemFree(p *sim.Proc, ptr uint64) error { return n.Ctx.MemFree(ptr) }

// HtoD implements accel.CUDA.
func (n *NativeCUDA) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	return n.Ctx.HtoD(p, dst, data)
}

// DtoH implements accel.CUDA.
func (n *NativeCUDA) DtoH(p *sim.Proc, src uint64, size int) ([]byte, error) {
	buf := make([]byte, size)
	if err := n.Ctx.DtoH(p, buf, src); err != nil {
		return nil, err
	}
	return buf, nil
}

// Launch implements accel.CUDA.
func (n *NativeCUDA) Launch(p *sim.Proc, kernel string, grid gpu.Dim, args ...uint64) error {
	return n.Ctx.Launch(p, kernel, grid, args...)
}

// Sync implements accel.CUDA.
func (n *NativeCUDA) Sync(p *sim.Proc) error { return nil }

// Close implements accel.CUDA: the context is destroyed, its memory
// scrubbed and given back, at no virtual cost.
func (n *NativeCUDA) Close(p *sim.Proc) error {
	if n.Ctx != nil {
		n.dev.DestroyContext(n.Ctx)
		n.Ctx = nil
	}
	return nil
}

// TrustZoneCUDA is the monolithic secure-world OS: the application and all
// drivers share one TEE. Driver invocations are intra-world calls with a
// syscall-style trap; entering/leaving the TEE around application phases is
// amortized. No isolation between the co-resident driver stacks.
type TrustZoneCUDA struct {
	inner NativeCUDA
}

var _ accel.CUDA = (*TrustZoneCUDA)(nil)

// NewTrustZoneCUDA creates the monolithic-TEE context.
func NewTrustZoneCUDA(d *gpu.Device, costs *sim.CostModel, cubin []byte) (*TrustZoneCUDA, error) {
	n, err := NewNativeCUDA(d, costs, cubin)
	if err != nil {
		return nil, err
	}
	return &TrustZoneCUDA{inner: *n}, nil
}

func (t *TrustZoneCUDA) trap(p *sim.Proc) { p.Sleep(t.inner.Costs.SyscallTrap) }

// MemAlloc implements accel.CUDA.
func (t *TrustZoneCUDA) MemAlloc(p *sim.Proc, size uint64) (uint64, error) {
	t.trap(p)
	return t.inner.MemAlloc(p, size)
}

// MemFree implements accel.CUDA.
func (t *TrustZoneCUDA) MemFree(p *sim.Proc, ptr uint64) error {
	t.trap(p)
	return t.inner.MemFree(p, ptr)
}

// HtoD implements accel.CUDA.
func (t *TrustZoneCUDA) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	t.trap(p)
	return t.inner.HtoD(p, dst, data)
}

// DtoH implements accel.CUDA.
func (t *TrustZoneCUDA) DtoH(p *sim.Proc, src uint64, size int) ([]byte, error) {
	t.trap(p)
	return t.inner.DtoH(p, src, size)
}

// Launch implements accel.CUDA.
func (t *TrustZoneCUDA) Launch(p *sim.Proc, kernel string, grid gpu.Dim, args ...uint64) error {
	t.trap(p)
	return t.inner.Launch(p, kernel, grid, args...)
}

// Sync implements accel.CUDA.
func (t *TrustZoneCUDA) Sync(p *sim.Proc) error {
	t.trap(p)
	return nil
}

// Close implements accel.CUDA.
func (t *TrustZoneCUDA) Close(p *sim.Proc) error { return t.inner.Close(p) }

// HIXCUDA is the HIX-TrustZone emulation (§VI-A): the application enclave
// reaches the GPU-driver enclave by synchronous, encrypted RPC over
// untrusted memory. Every hardware control message is one lock-step RPC:
// the caller pays encryption of the payload, the world/context switches,
// and the reply path, serially.
type HIXCUDA struct {
	inner NativeCUDA
	// ctrlMsgs maps one driver operation to its hardware control message
	// count (command submission, doorbell, fence wait, ...).
}

var _ accel.CUDA = (*HIXCUDA)(nil)

// NewHIXCUDA creates the HIX-emulation context.
func NewHIXCUDA(d *gpu.Device, costs *sim.CostModel, cubin []byte) (*HIXCUDA, error) {
	n, err := NewNativeCUDA(d, costs, cubin)
	if err != nil {
		return nil, err
	}
	return &HIXCUDA{inner: *n}, nil
}

// rpc charges one lock-step encrypted RPC round trip carrying n payload
// bytes (§II-C synchronous approach; §VI-B "HIX conducts an RPC for each
// hardware control message").
func (h *HIXCUDA) rpc(p *sim.Proc, n int) {
	c := h.inner.Costs
	p.Sleep(c.Encrypt(n))      // seal request
	p.Sleep(c.SyncRPCSwitch()) // 4 context switches in
	p.Sleep(c.UntrustedMsg)    // untrusted memory handoff
	p.Sleep(c.Encrypt(n))      // peer opens request
	p.Sleep(c.Encrypt(64))     // seal reply (ack/status)
	p.Sleep(c.SyncRPCSwitch()) // 4 context switches back
	p.Sleep(c.Encrypt(64))     // open reply
}

// Hardware control messages per driver operation.
const (
	hixMsgsAlloc  = 2 // allocate + map
	hixMsgsCopy   = 3 // stage command + DMA kick + completion fence
	hixMsgsLaunch = 4 // push module state + command + doorbell + fence
	hixMsgsSync   = 1
)

// MemAlloc implements accel.CUDA.
func (h *HIXCUDA) MemAlloc(p *sim.Proc, size uint64) (uint64, error) {
	for i := 0; i < hixMsgsAlloc; i++ {
		h.rpc(p, 64)
	}
	return h.inner.MemAlloc(p, size)
}

// MemFree implements accel.CUDA.
func (h *HIXCUDA) MemFree(p *sim.Proc, ptr uint64) error {
	h.rpc(p, 64)
	return h.inner.MemFree(p, ptr)
}

// HtoD implements accel.CUDA: the payload crosses untrusted memory
// encrypted.
func (h *HIXCUDA) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	h.rpc(p, len(data))
	for i := 1; i < hixMsgsCopy; i++ {
		h.rpc(p, 64)
	}
	return h.inner.HtoD(p, dst, data)
}

// DtoH implements accel.CUDA.
func (h *HIXCUDA) DtoH(p *sim.Proc, src uint64, size int) ([]byte, error) {
	h.rpc(p, size)
	for i := 1; i < hixMsgsCopy; i++ {
		h.rpc(p, 64)
	}
	return h.inner.DtoH(p, src, size)
}

// Launch implements accel.CUDA: lock-step, so the caller also waits for the
// kernel itself.
func (h *HIXCUDA) Launch(p *sim.Proc, kernel string, grid gpu.Dim, args ...uint64) error {
	for i := 0; i < hixMsgsLaunch; i++ {
		h.rpc(p, 128)
	}
	return h.inner.Launch(p, kernel, grid, args...)
}

// Sync implements accel.CUDA.
func (h *HIXCUDA) Sync(p *sim.Proc) error {
	h.rpc(p, 64)
	return nil
}

// Close implements accel.CUDA.
func (h *HIXCUDA) Close(p *sim.Proc) error { return h.inner.Close(p) }

// NativeNPU is unprotected VTA fsim access.
type NativeNPU struct {
	Ctx   *npu.Context
	Costs *sim.CostModel
	dev   *npu.Device
}

var _ accel.NPU = (*NativeNPU)(nil)

// NewNativeNPU creates a native NPU context.
func NewNativeNPU(d *npu.Device, costs *sim.CostModel) *NativeNPU {
	return &NativeNPU{Ctx: d.CreateContext(), Costs: costs, dev: d}
}

// MemAlloc implements accel.NPU.
func (n *NativeNPU) MemAlloc(p *sim.Proc, size uint64) (uint64, error) { return n.Ctx.MemAlloc(size) }

// HtoD implements accel.NPU.
func (n *NativeNPU) HtoD(p *sim.Proc, dst uint64, data []byte) error { return n.Ctx.HtoD(p, dst, data) }

// DtoH implements accel.NPU.
func (n *NativeNPU) DtoH(p *sim.Proc, src uint64, size int) ([]byte, error) {
	buf := make([]byte, size)
	if err := n.Ctx.DtoH(p, buf, src); err != nil {
		return nil, err
	}
	return buf, nil
}

// Run implements accel.NPU.
func (n *NativeNPU) Run(p *sim.Proc, insns []npu.Insn) error { return n.Ctx.Run(p, insns) }

// Sync implements accel.NPU.
func (n *NativeNPU) Sync(p *sim.Proc) error { return nil }

// Close implements accel.NPU: the context is destroyed, its memory
// scrubbed and given back, at no virtual cost.
func (n *NativeNPU) Close(p *sim.Proc) error {
	if n.Ctx != nil {
		n.dev.DestroyContext(n.Ctx)
		n.Ctx = nil
	}
	return nil
}

// TrustZoneNPU is the monolithic-TEE NPU stack.
type TrustZoneNPU struct {
	inner *NativeNPU
}

var _ accel.NPU = (*TrustZoneNPU)(nil)

// NewTrustZoneNPU creates the monolithic-TEE NPU context.
func NewTrustZoneNPU(d *npu.Device, costs *sim.CostModel) *TrustZoneNPU {
	return &TrustZoneNPU{inner: NewNativeNPU(d, costs)}
}

func (t *TrustZoneNPU) trap(p *sim.Proc) { p.Sleep(t.inner.Costs.SyscallTrap) }

// MemAlloc implements accel.NPU.
func (t *TrustZoneNPU) MemAlloc(p *sim.Proc, size uint64) (uint64, error) {
	t.trap(p)
	return t.inner.MemAlloc(p, size)
}

// HtoD implements accel.NPU.
func (t *TrustZoneNPU) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	t.trap(p)
	return t.inner.HtoD(p, dst, data)
}

// DtoH implements accel.NPU.
func (t *TrustZoneNPU) DtoH(p *sim.Proc, src uint64, size int) ([]byte, error) {
	t.trap(p)
	return t.inner.DtoH(p, src, size)
}

// Run implements accel.NPU.
func (t *TrustZoneNPU) Run(p *sim.Proc, insns []npu.Insn) error {
	t.trap(p)
	return t.inner.Run(p, insns)
}

// Sync implements accel.NPU.
func (t *TrustZoneNPU) Sync(p *sim.Proc) error {
	t.trap(p)
	return nil
}

// Close implements accel.NPU.
func (t *TrustZoneNPU) Close(p *sim.Proc) error { return t.inner.Close(p) }

// Describe returns the qualitative requirement matrix row for a system
// (Table I).
func Describe(s System) (r1General, r2Spatial, r31Fault, r32Security bool, err error) {
	switch s {
	case Native:
		return true, true, false, false, nil
	case TrustZone:
		return true, true, false, false, nil
	case HIX:
		return false, false, false, true, nil
	case CRONUS:
		return true, true, true, true, nil
	}
	return false, false, false, false, fmt.Errorf("baseline: unknown system %q", s)
}
