package driver

import (
	"fmt"

	"cronus/internal/enclave"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/trace"
	"cronus/internal/wire"
)

// NPU is the NPU partition's HAL: the VTA fsim driver. Each NPU mEnclave
// gets an isolated device memory context; instruction streams are submitted
// through the vtaRun mECall.
type NPU struct {
	accel
	dev *npu.Device
}

// NewNPU creates the NPU HAL.
func NewNPU(dev *npu.Device, costs *sim.CostModel, vendor string, cert []byte) *NPU {
	return &NPU{dev: dev, accel: accel{kind: "npu", dev: dev, costs: costs, vendor: vendor, cert: cert,
		calls: memCalls{CallVTAMemAlloc, CallVTAHtoD, CallVTADtoH, CallVTASync, mNPUHtoDBytes, mNPUDtoHBytes}}}
}

// NewModel implements mos.HAL.
func (g *NPU) NewModel(p *sim.Proc) (enclave.Model, error) {
	g.enter(p)
	return &NPUModel{hal: g}, nil
}

// NPU mECall names.
const (
	CallVTAMemAlloc = "vtaMemAlloc"
	CallVTAHtoD     = "vtaCopyToDevice"
	CallVTADtoH     = "vtaCopyFromDevice"
	CallVTARun      = "vtaRun"
	CallVTASync     = "vtaSync"
)

// npuEDL is the text of NPUEDL, what enclave.BuildEDL writes for its table.
const npuEDL = "// CRONUS EDL\n" +
	"mecall " + CallVTAMemAlloc + " sync\n" +
	"mecall " + CallVTAHtoD + " async\n" +
	"mecall " + CallVTADtoH + " sync\n" +
	"mecall " + CallVTARun + " async\n" +
	"mecall " + CallVTASync + " sync\n"

// NPUEDL returns the EDL for NPU mEnclaves. The slice is the caller's.
func NPUEDL() []byte { return []byte(npuEDL) }

// NPUModel is the NPU mEnclave runtime (fsim runtime stand-in). Its image,
// when present, is a pre-verified instruction program; streams may also be
// submitted dynamically via vtaRun.
type NPUModel struct {
	hal *NPU
	ctx *npu.Context
}

// Create implements enclave.Model.
func (m *NPUModel) Create(p *sim.Proc, image []byte) error {
	m.ctx = m.hal.dev.CreateContext()
	if len(image) > 0 {
		p.Sleep(m.hal.costs.Hash(len(image)))
		if _, err := DecodeInsns(nil, image); err != nil {
			return fmt.Errorf("driver: bad NPU program image: %w", err)
		}
	}
	return nil
}

// Call implements enclave.Model: the memory mECalls are the HAL's
// (memCall), vtaRun the VTA runtime's.
func (m *NPUModel) Call(p *sim.Proc, name string, args []byte, res *wire.Encoder, sc *enclave.Scratch) error {
	if m.ctx == nil {
		return fmt.Errorf("driver: NPU model not created")
	}
	if ok, err := memCall(&m.hal.accel, p, &m.ctx.Space, name, args, res); ok {
		return err
	}
	switch name {
	case CallVTARun:
		// The stream is decoded into the calling thread's buffer, never
		// the model's: another ring's executor can be inside this same
		// model, parked in its Run, while this call decodes.
		buf := insnBuf(sc)
		insns, err := DecodeInsns(*buf, args)
		if err != nil {
			return err
		}
		*buf = insns
		mNPURuns.Inc()
		end := trace.Of(p.Kernel()).Span(p, "driver", m.hal.dev.Name(), "vta-run")
		err = m.ctx.Run(p, insns)
		end()
		return err
	}
	return fmt.Errorf("driver: unknown NPU mECall %q", name)
}

// insnBuf returns the instruction buffer sc keeps for vtaRun, made on its
// first use; without a Scratch, a fresh one the call owns alone.
func insnBuf(sc *enclave.Scratch) *[]npu.Insn {
	if sc == nil {
		return new([]npu.Insn)
	}
	buf, ok := sc.V.(*[]npu.Insn)
	if !ok {
		buf = new([]npu.Insn)
		sc.V = buf
	}
	return buf
}

// Destroy implements enclave.Model.
func (m *NPUModel) Destroy(*sim.Proc) {
	if m.ctx != nil {
		m.hal.dev.DestroyContext(m.ctx)
		m.ctx = nil
	}
}

// insnBytes is the encoded size of one instruction: sixteen u32 fields and
// the u64 DRAM address.
const insnBytes = 16*4 + 8

// insnMagic heads every encoded instruction stream.
const insnMagic = "VTAPROG v1"

// EncodeInsns appends an NPU instruction stream for vtaRun (also the NPU
// enclave image format) to e and returns e's bytes, growing e once to the
// stream's exact size. As with EncodeLaunch, a stream's caller encodes into
// the stream's own scratch (srpc.Client.Args); anyone else passes a fresh
// encoder.
func EncodeInsns(e *wire.Encoder, insns []npu.Insn) []byte {
	e.Grow(4 + len(insnMagic) + 4 + len(insns)*insnBytes).Str(insnMagic)
	e.U32(uint32(len(insns)))
	for i := range insns {
		in := &insns[i]
		e.U32(uint32(in.Op)).U32(uint32(in.Mem))
		e.U64(in.DRAMAddr).U32(in.SRAMIdx).U32(in.Count)
		e.U32(in.InpIdx).U32(in.WgtIdx).U32(in.AccIdx)
		e.U32(in.InpStride).U32(in.WgtStride).U32(in.AccStride)
		e.U32(flag(in.Reset))
		e.U32(uint32(in.Alu)).U32(in.DstIdx).U32(in.SrcIdx)
		e.U32(flag(in.UseImm))
		e.U32(uint32(in.Imm))
	}
	return e.Bytes()
}

// flag encodes a bool as a u32.
func flag(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// DecodeInsns parses a vtaRun payload / NPU program image into buf's storage
// when it holds the stream, into a new slice of the stream's length
// otherwise. Every field of every instruction is written, so nothing of
// buf's earlier contents survives.
func DecodeInsns(buf []npu.Insn, data []byte) ([]npu.Insn, error) {
	d := wire.NewDecoder(data)
	if magic := d.StrRef(); string(magic) != insnMagic {
		return nil, fmt.Errorf("driver: not a VTA program (magic %q)", magic)
	}
	n := d.Count(insnBytes)
	if cap(buf) < n {
		buf = make([]npu.Insn, n)
	}
	insns := buf[:n]
	for i := range insns {
		in := &insns[i]
		in.Op = npu.Op(d.U32())
		in.Mem = npu.Mem(d.U32())
		in.DRAMAddr = d.U64()
		in.SRAMIdx = d.U32()
		in.Count = d.U32()
		in.InpIdx = d.U32()
		in.WgtIdx = d.U32()
		in.AccIdx = d.U32()
		in.InpStride = d.U32()
		in.WgtStride = d.U32()
		in.AccStride = d.U32()
		in.Reset = d.U32() == 1
		in.Alu = npu.AluOp(d.U32())
		in.DstIdx = d.U32()
		in.SrcIdx = d.U32()
		in.UseImm = d.U32() == 1
		in.Imm = int32(d.U32())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return insns, nil
}
