package driver

import (
	"encoding/binary"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/mos"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/trace"
	"cronus/internal/wire"
)

// NPU is the NPU partition's HAL: the VTA fsim driver. Each NPU mEnclave
// gets an isolated device memory context; instruction streams are submitted
// through the vtaRun mECall.
type NPU struct {
	dev    *npu.Device
	costs  *sim.CostModel
	vendor string
	cert   []byte
	nonce  uint64
	irqs   int
}

// NewNPU creates the NPU HAL.
func NewNPU(dev *npu.Device, costs *sim.CostModel, vendor string, cert []byte) *NPU {
	return &NPU{dev: dev, costs: costs, vendor: vendor, cert: cert}
}

// DeviceType implements mos.HAL.
func (g *NPU) DeviceType() string { return "npu" }

// Init implements mos.HAL.
func (g *NPU) Init(p *sim.Proc, sh *mos.Shim) error {
	if err := sh.Ioremap(p); err != nil {
		return err
	}
	g.nonce++
	var challenge [16]byte
	binary.LittleEndian.PutUint64(challenge[:], g.nonce)
	copy(challenge[8:], sh.DeviceName())
	sig := g.dev.Authenticate(challenge[:])
	p.Sleep(g.costs.VerifyFixed)
	if !attest.Verify(g.dev.PubKey(), challenge[:], sig) {
		return fmt.Errorf("driver: device %q failed authenticity check", sh.DeviceName())
	}
	sh.RegisterDeviceKey(g.vendor, g.dev.PubKey(), g.cert)
	// request_irq: fault/completion interrupts from the device are routed
	// to this partition's line (secure-world only, spoof-checked by the
	// GIC against the device tree).
	if err := sh.RequestIRQ(func() { g.irqs++ }); err != nil {
		return err
	}
	return nil
}

// IRQs reports how many device interrupts the driver has handled.
func (g *NPU) IRQs() int { return g.irqs }

// NewModel implements mos.HAL.
func (g *NPU) NewModel(p *sim.Proc) (enclave.Model, error) {
	p.Sleep(g.costs.EnclaveEntry)
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

// NPUEDL returns the EDL for NPU mEnclaves.
func NPUEDL() []byte {
	return enclave.BuildEDL(
		enclave.MECallSpec{Name: CallVTAMemAlloc, Async: false},
		enclave.MECallSpec{Name: CallVTAHtoD, Async: true},
		enclave.MECallSpec{Name: CallVTADtoH, Async: false},
		enclave.MECallSpec{Name: CallVTARun, Async: true},
		enclave.MECallSpec{Name: CallVTASync, Async: false},
	)
}

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
		if _, err := DecodeInsns(image); err != nil {
			return fmt.Errorf("driver: bad NPU program image: %w", err)
		}
	}
	return nil
}

// Call implements enclave.Model; like the CUDA model it consumes args in
// place and DMA-copies a DtoH straight into res.
func (m *NPUModel) Call(p *sim.Proc, name string, args []byte, res *wire.Encoder) error {
	if m.ctx == nil {
		return fmt.Errorf("driver: NPU model not created")
	}
	d := wire.NewDecoder(args)
	switch name {
	case CallVTAMemAlloc:
		size := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		addr, err := m.ctx.MemAlloc(size)
		if err != nil {
			return err
		}
		res.U64(addr)
		return nil
	case CallVTAHtoD:
		dst := d.U64()
		data := d.BlobRef()
		if err := d.Err(); err != nil {
			return err
		}
		mNPUHtoDBytes.Add(uint64(len(data)))
		end := trace.Of(p.Kernel()).Span(p, "driver", m.hal.dev.Name(), "dma-htod")
		err := m.ctx.HtoD(p, dst, data)
		end()
		return err
	case CallVTADtoH:
		src := d.U64()
		n := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if err := m.ctx.CheckRange(src, n); err != nil {
			return err
		}
		mNPUDtoHBytes.Add(n)
		end := trace.Of(p.Kernel()).Span(p, "driver", m.hal.dev.Name(), "dma-dtoh")
		err := m.ctx.DtoH(p, res.U32(uint32(n)).Reserve(int(n)), src)
		end()
		return err
	case CallVTARun:
		insns, err := DecodeInsns(args)
		if err != nil {
			return err
		}
		mNPURuns.Inc()
		end := trace.Of(p.Kernel()).Span(p, "driver", m.hal.dev.Name(), "vta-run")
		err = m.ctx.Run(p, insns)
		end()
		return err
	case CallVTASync:
		p.Sleep(m.hal.costs.DeviceMMIO)
		return nil
	}
	return fmt.Errorf("driver: unknown NPU mECall %q", name)
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

// EncodeInsns serializes an NPU instruction stream for vtaRun (also the NPU
// enclave image format).
func EncodeInsns(insns []npu.Insn) []byte {
	e := wire.NewEncoder()
	e.Str("VTAPROG v1")
	e.U32(uint32(len(insns)))
	for i := range insns {
		in := &insns[i]
		e.U32(uint32(in.Op)).U32(uint32(in.Mem))
		e.U64(in.DRAMAddr).U32(in.SRAMIdx).U32(in.Count)
		e.U32(in.InpIdx).U32(in.WgtIdx).U32(in.AccIdx)
		e.U32(in.InpStride).U32(in.WgtStride).U32(in.AccStride)
		if in.Reset {
			e.U32(1)
		} else {
			e.U32(0)
		}
		e.U32(uint32(in.Alu)).U32(in.DstIdx).U32(in.SrcIdx)
		if in.UseImm {
			e.U32(1)
		} else {
			e.U32(0)
		}
		e.U32(uint32(in.Imm))
	}
	return e.Bytes()
}

// DecodeInsns parses a vtaRun payload / NPU program image.
func DecodeInsns(data []byte) ([]npu.Insn, error) {
	d := wire.NewDecoder(data)
	if magic := d.Str(); magic != "VTAPROG v1" {
		return nil, fmt.Errorf("driver: not a VTA program (magic %q)", magic)
	}
	insns := make([]npu.Insn, d.Count(insnBytes))
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
