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
	"fmt"
	"math"

	"cronus/internal/attest"
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
	k     *sim.Kernel
	costs *sim.CostModel

	memSize uint64
	memUsed uint64

	// Scratchpads (shared by all contexts; executions are serialized like
	// the single physical VTA pipeline). inp, wgt and out hold int8 lanes as
	// the bytes DMA moves, so LOAD and STORE are copies. They are allocated
	// by the first stream that runs (Run), not by New: most platforms boot
	// an NPU that never runs one.
	inp []byte
	wgt []byte
	acc []int32
	out []byte

	pipeline *sim.Resource // whole-pipeline exclusivity per instruction stream
	contexts map[int]*Context
	nextCtx  int
	gen      uint64
	last     *Context // whose stream ran last: the scratchpads hold its data

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

// New creates an NPU device.
func New(k *sim.Kernel, costs *sim.CostModel, cfg Config) *Device {
	return &Device{
		name:     cfg.Name,
		k:        k,
		costs:    costs,
		memSize:  cfg.MemBytes,
		pipeline: sim.NewResource(k, cfg.Name+"/pipe", 1),
		contexts: make(map[int]*Context),
		priv:     attest.KeyFromSeed([]byte("npu-device-key/" + cfg.KeySeed)),
	}
}

// Name implements hw.Device.
func (d *Device) Name() string { return d.name }

// MemBytes returns total device DRAM.
func (d *Device) MemBytes() uint64 { return d.memSize }

// MemUsed returns the device DRAM live contexts hold.
func (d *Device) MemUsed() uint64 { return d.memUsed }

// PubKey returns the device authenticity key.
func (d *Device) PubKey() attest.PublicKey { return d.priv.Public().(attest.PublicKey) }

// Authenticate signs a challenge with the fused device key.
func (d *Device) Authenticate(challenge []byte) []byte { return attest.Sign(d.priv, challenge) }

// Reset implements hw.Device: scrub scratchpads, DRAM and contexts.
func (d *Device) Reset() {
	d.scrubScratchpads()
	for _, c := range d.contexts {
		for _, s := range c.spans {
			clear(s.buf)
		}
	}
	d.contexts = make(map[int]*Context)
	d.memUsed = 0
	d.gen++
}

// allocScratchpads allocates the on-chip buffers, zeroed, if no stream has
// yet.
func (d *Device) allocScratchpads() {
	if d.inp != nil {
		return
	}
	d.inp = make([]byte, InpBufBlocks*InpBlockBytes)
	d.wgt = make([]byte, WgtBufBlocks*WgtBlockBytes)
	d.acc = make([]int32, AccBufBlocks*BlockOut)
	d.out = make([]byte, OutBufBlocks*OutBlockBytes)
}

// scrubScratchpads zeroes the on-chip buffers every context's streams share.
func (d *Device) scrubScratchpads() {
	clear(d.inp)
	clear(d.wgt)
	clear(d.acc)
	clear(d.out)
	d.last = nil
}

// ErrStaleContext reports use of a context created before a device reset.
var ErrStaleContext = fmt.Errorf("npu: context predates device reset")

type span struct {
	addr uint64
	size uint64
	buf  []byte
}

// Context is an isolated NPU memory space ("virtual memory" isolation of
// concurrent NPU tenants, §V-B).
type Context struct {
	id    int
	dev   *Device
	gen   uint64
	spans []*span
	next  uint64
}

// CreateContext makes an isolated context.
func (d *Device) CreateContext() *Context {
	d.nextCtx++
	c := &Context{id: d.nextCtx, dev: d, gen: d.gen}
	d.contexts[c.id] = c
	return c
}

// DestroyContext scrubs and frees a context's memory and its scratchpad data.
func (d *Device) DestroyContext(c *Context) {
	if d.contexts[c.id] != c {
		return
	}
	for _, s := range c.spans {
		clear(s.buf)
		d.memUsed -= s.size
	}
	c.spans = nil
	delete(d.contexts, c.id)
	if d.last == c {
		d.scrubScratchpads()
	}
}

func (c *Context) check() error {
	if c.gen != c.dev.gen {
		return ErrStaleContext
	}
	return nil
}

// MemAlloc allocates device DRAM and returns its device address.
func (c *Context) MemAlloc(n uint64) (uint64, error) {
	if err := c.check(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("npu: zero-byte allocation")
	}
	if c.dev.memUsed+n > c.dev.memSize {
		return 0, fmt.Errorf("npu: out of device memory")
	}
	addr := uint64(c.id)<<40 | (c.next + 0x1000)
	c.next += (n + 0xfff) &^ 0xfff
	c.spans = append(c.spans, &span{addr: addr, size: n, buf: make([]byte, n)})
	c.dev.memUsed += n
	return addr, nil
}

func (c *Context) resolve(addr uint64, n int) ([]byte, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	for _, s := range c.spans {
		if addr >= s.addr && addr+uint64(n) <= s.addr+s.size {
			off := addr - s.addr
			return s.buf[off : off+uint64(n)], nil
		}
	}
	return nil, fmt.Errorf("npu: invalid device address %#x (+%d) in context %d", addr, n, c.id)
}

// CheckRange reports whether [addr, addr+n) lies inside one live allocation
// of this context, with the error a transfer over that range would return. A
// driver asks before it sizes a host-side buffer from a length the caller
// supplied.
func (c *Context) CheckRange(addr, n uint64) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("npu: transfer of %d bytes exceeds the device", n)
	}
	_, err := c.resolve(addr, int(n))
	return err
}

// HtoD copies host bytes into device DRAM (PCIe DMA).
func (c *Context) HtoD(p *sim.Proc, dst uint64, src []byte) error {
	buf, err := c.resolve(dst, len(src))
	if err != nil {
		return err
	}
	p.Sleep(c.dev.costs.DMA(len(src)))
	copy(buf, src)
	return nil
}

// DtoH copies device DRAM to host bytes.
func (c *Context) DtoH(p *sim.Proc, dst []byte, src uint64) error {
	buf, err := c.resolve(src, len(dst))
	if err != nil {
		return err
	}
	p.Sleep(c.dev.costs.DMA(len(dst)))
	copy(dst, buf)
	return nil
}
