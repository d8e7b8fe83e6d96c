// Package npu implements a VTA-compatible NPU simulator, the counterpart of
// TVM's fsim used in the paper (§V-B): an instruction-driven accelerator
// with int8 GEMM and vector ALU cores, SRAM scratchpads for inputs, weights,
// accumulators and outputs, and DMA between device DRAM and the scratchpads.
//
// Instructions execute functionally (real int8/int32 arithmetic) while the
// device charges cycle-accurate-style virtual time, so inference results are
// verifiable and latencies reproducible.
package npu

import (
	"errors"

	"cronus/internal/attest"
	"cronus/internal/devmem"
	"cronus/internal/recycle"
	"cronus/internal/sim"
)

// Block geometry (the standard VTA configuration): the GEMM core multiplies
// a 1×16 int8 input block by a 16×16 int8 weight block into a 1×16 int32
// accumulator block each cycle.
const (
	BlockIn  = 16 // input vector lanes
	BlockOut = 16 // output vector lanes

	WgtBlockBytes = BlockIn * BlockOut // one weight block in DRAM/SRAM
	InpBlockBytes = BlockIn
	OutBlockBytes = BlockOut
	AccBlockBytes = BlockOut * 4
)

// Scratchpad capacities in blocks.
const (
	InpBufBlocks = 2048 // 32 KiB of int8 input blocks
	WgtBufBlocks = 1024 // 256 KiB of weight blocks
	AccBufBlocks = 2048 // 128 KiB of accumulator blocks
	OutBufBlocks = 2048 // 32 KiB of output blocks
)

// Op is a VTA instruction opcode.
type Op uint8

// Opcodes.
const (
	OpLoad Op = iota
	OpStore
	OpGemm
	OpAlu
	// OpCommit narrows Count accumulator blocks starting at SrcIdx into
	// int8 output blocks starting at DstIdx (the VTA ACC→OUT path).
	OpCommit
	OpFinish
)

// Mem selects a scratchpad for LOAD/STORE.
type Mem uint8

// Scratchpad identifiers.
const (
	MemInp Mem = iota
	MemWgt
	MemAcc
	MemOut
)

// AluOp is a vector ALU operation applied lane-wise to accumulator blocks.
type AluOp uint8

// ALU operations.
const (
	AluAdd AluOp = iota // dst += src (or imm)
	AluMax              // dst = max(dst, src/imm)
	AluMin              // dst = min(dst, src/imm)
	AluShr              // dst >>= src/imm (arithmetic)
)

// Insn is one NPU instruction.
type Insn struct {
	Op Op

	// LOAD/STORE fields.
	Mem      Mem
	DRAMAddr uint64 // device DRAM byte address
	SRAMIdx  uint32 // scratchpad block index
	Count    uint32 // number of blocks (LOAD/STORE) or iterations (GEMM/ALU)

	// GEMM fields: for i in [0,Count): acc[AccIdx+i*AccStride] +=
	// wgt[WgtIdx+i*WgtStride] × inp[InpIdx+i*InpStride]; Reset zeroes each
	// touched accumulator block before its first use.
	InpIdx, WgtIdx, AccIdx          uint32
	InpStride, WgtStride, AccStride uint32
	Reset                           bool

	// ALU fields: lane-wise over Count consecutive blocks.
	Alu    AluOp
	DstIdx uint32
	SrcIdx uint32
	UseImm bool
	Imm    int32
}

// Device is one NPU. It implements hw.Device.
type Device struct {
	name  string
	costs *sim.CostModel
	mem   devmem.Device[byte]

	// Scratchpads (shared by all contexts; executions are serialized like
	// the single physical VTA pipeline). inp, wgt and out hold int8 lanes as
	// the bytes DMA moves, so LOAD and STORE are copies. A stream's Run takes
	// them from the recycler, not New: most platforms boot an NPU that never
	// runs one.
	inp []byte
	wgt []byte
	acc []int32
	out []byte

	pipeline *sim.Resource // whole-pipeline exclusivity per instruction stream
	last     *Context      // whose stream ran last: the scratchpads hold its data

	priv attest.PrivateKey
}

// Config sizes an NPU.
type Config struct {
	Name     string
	MemBytes uint64
	KeySeed  string
}

// DefaultConfig is the paper's VTA PCIe device (Table II) with 256 MiB of
// DRAM, scaled down for simulation: CRONUS's platform and the baselines both
// build their NPUs from it.
func DefaultConfig(name string) Config {
	return Config{Name: name, MemBytes: 256 << 20, KeySeed: "vta/" + name}
}

// New creates an NPU device. Its DRAM and scratchpads go back to the
// recycler when k shuts down.
func New(k *sim.Kernel, costs *sim.CostModel, cfg Config) *Device {
	d := &Device{
		name:     cfg.Name,
		costs:    costs,
		pipeline: sim.NewResource(k, cfg.Name+"/pipe", 1),
		priv:     attest.KeyFromSeed([]byte("npu-device-key/" + cfg.KeySeed)),
	}
	d.mem = devmem.New(devmem.Errors{Kind: "npu", Stale: ErrStaleContext, InvalidPointer: ErrInvalidPointer, OutOfMemory: ErrOutOfMemory},
		cfg.MemBytes, &recycle.Bytes, func(b []byte) []byte { return b }, func(p *sim.Proc, n int) { p.Sleep(costs.DMA(n)) })
	k.AtShutdown(d.Reset)
	return d
}

// Name implements hw.Device.
func (d *Device) Name() string { return d.name }

// MemBytes returns total device DRAM.
func (d *Device) MemBytes() uint64 { return d.mem.MemBytes() }

// MemUsed returns the device DRAM live contexts hold.
func (d *Device) MemUsed() uint64 { return d.mem.MemUsed() }

// PubKey returns the device authenticity key.
func (d *Device) PubKey() attest.PublicKey { return d.priv.Public().(attest.PublicKey) }

// Authenticate signs a challenge with the fused device key.
func (d *Device) Authenticate(challenge []byte) []byte { return attest.Sign(d.priv, challenge) }

// Reset implements hw.Device: it scrubs the scratchpads and every
// context's DRAM into the recycler and makes every context stale — the
// SPM's failure-clearing hook (A3), and the end of the kernel the device
// lives on.
func (d *Device) Reset() {
	d.dropScratchpads()
	d.mem.Reset()
}

// takeScratchpads gives a stream zeroed on-chip buffers: a context's first
// stream since another context's ran, or since a reset, takes them from the
// recycler, which scrubbed them when they were dropped.
func (d *Device) takeScratchpads(c *Context) {
	if d.last == c {
		return
	}
	d.dropScratchpads() // another context's data must not reach this stream
	d.inp = recycle.Bytes.Get(InpBufBlocks * InpBlockBytes)
	d.wgt = recycle.Bytes.Get(WgtBufBlocks * WgtBlockBytes)
	d.acc = recycle.Int32s.Get(AccBufBlocks * BlockOut)
	d.out = recycle.Bytes.Get(OutBufBlocks * OutBlockBytes)
	d.last = c
}

// dropScratchpads scrubs the on-chip buffers every context's streams share
// into the recycler.
func (d *Device) dropScratchpads() {
	recycle.Bytes.Put(d.inp)
	recycle.Bytes.Put(d.wgt)
	recycle.Int32s.Put(d.acc)
	recycle.Bytes.Put(d.out)
	d.inp, d.wgt, d.acc, d.out = nil, nil, nil, nil
	d.last = nil
}

// The typed faults of NPU memory (devmem.Errors).
var (
	ErrStaleContext   = errors.New("npu: context destroyed or reset")
	ErrInvalidPointer = errors.New("npu: invalid device pointer")
	ErrOutOfMemory    = errors.New("npu: out of device memory")
)

// Context is an isolated NPU memory space ("virtual memory" isolation of
// concurrent NPU tenants, §V-B).
type Context struct {
	devmem.Space[byte]
	dev *Device
}

// CreateContext makes an isolated context.
func (d *Device) CreateContext() *Context {
	c := &Context{dev: d}
	d.mem.Open(&c.Space)
	return c
}

// DestroyContext scrubs a context's DRAM, and the scratchpads if its stream
// ran last, into the recycler; every later use of c is ErrStaleContext.
func (d *Device) DestroyContext(c *Context) {
	if d.mem.Close(&c.Space) && d.last == c {
		d.dropScratchpads()
	}
}
