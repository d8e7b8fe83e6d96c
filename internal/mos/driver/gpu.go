package driver

import (
	"encoding/binary"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/mos"
	"cronus/internal/sim"
	"cronus/internal/trace"
	"cronus/internal/wire"
)

// GPU is the GPU partition's HAL: the nouveau-style driver plus the
// gdev-style runtime factory. It authenticates the physical device at init
// and hands each CUDA mEnclave an isolated GPU context (§V-B).
type GPU struct {
	dev    *gpu.Device
	costs  *sim.CostModel
	vendor string
	cert   []byte // vendor CA endorsement of the device key
	nonce  uint64
	irqs   int
}

// NewGPU creates the GPU HAL for a device whose key the named vendor
// endorsed with cert.
func NewGPU(dev *gpu.Device, costs *sim.CostModel, vendor string, cert []byte) *GPU {
	return &GPU{dev: dev, costs: costs, vendor: vendor, cert: cert}
}

// DeviceType implements mos.HAL.
func (g *GPU) DeviceType() string { return "gpu" }

// Init implements mos.HAL: map the BARs (TZPC-checked), challenge the device
// to prove possession of its fused key (authenticity, §IV-A), and register
// the key with the SPM for attestation reports.
func (g *GPU) Init(p *sim.Proc, sh *mos.Shim) error {
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
		return fmt.Errorf("driver: device %q failed authenticity check (fabricated accelerator?)", sh.DeviceName())
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
func (g *GPU) IRQs() int { return g.irqs }

// NewModel implements mos.HAL.
func (g *GPU) NewModel(p *sim.Proc) (enclave.Model, error) {
	p.Sleep(g.costs.EnclaveEntry)
	return &CUDAModel{hal: g}, nil
}

// CUDAModel is the CUDA mEnclave runtime (gdev/ocelot stand-in): its image
// is a cubin and its mECalls are the CUDA driver API surface.
type CUDAModel struct {
	hal *GPU
	ctx *gpu.Context
	// kernels holds the kernel names launched so far (bounded: the caller
	// chooses the bytes), so a repeated launch does not allocate its name.
	kernels wire.Names
}

// Create implements enclave.Model: parse the CUDA ELF and load it into a
// fresh isolated GPU context (me_create for CUDA, §IV-A).
func (m *CUDAModel) Create(p *sim.Proc, image []byte) error {
	m.ctx = m.hal.dev.CreateContext()
	if len(image) == 0 {
		return nil // fixed-function / modules loaded later
	}
	p.Sleep(m.hal.costs.Hash(len(image))) // image parse pass
	return m.ctx.LoadModule(image)
}

// CUDA mECall names served by every CUDA mEnclave.
const (
	CallMemAlloc = "cuMemAlloc"
	CallMemFree  = "cuMemFree"
	CallHtoD     = "cuMemcpyHtoD"
	CallDtoH     = "cuMemcpyDtoH"
	CallLaunch   = "cuLaunchKernel"
	CallSync     = "cuCtxSynchronize"
)

// CUDAEDL returns the EDL for CUDA mEnclaves: launches and HtoD copies
// stream asynchronously; allocation and DtoH return data, so they are
// synchronous (§IV-C: "checks the progress ... only when it needs data").
func CUDAEDL() []byte {
	return enclave.BuildEDL(
		enclave.MECallSpec{Name: CallMemAlloc, Async: false},
		enclave.MECallSpec{Name: CallMemFree, Async: true},
		enclave.MECallSpec{Name: CallHtoD, Async: true},
		enclave.MECallSpec{Name: CallDtoH, Async: false},
		enclave.MECallSpec{Name: CallLaunch, Async: true},
		enclave.MECallSpec{Name: CallSync, Async: false},
	)
}

// Call implements enclave.Model. Arguments are consumed in place — an HtoD
// payload is DMA-copied to the device straight out of args, a DtoH lands
// straight in res — so nothing here outlives the call (see enclave.Model).
func (m *CUDAModel) Call(p *sim.Proc, name string, args []byte, res *wire.Encoder) error {
	if m.ctx == nil {
		return fmt.Errorf("driver: CUDA model not created")
	}
	d := wire.NewDecoder(args)
	switch name {
	case CallMemAlloc:
		size := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		ptr, err := m.ctx.MemAlloc(size)
		if err != nil {
			return err
		}
		res.U64(ptr)
		return nil
	case CallMemFree:
		ptr := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		return m.ctx.MemFree(ptr)
	case CallHtoD:
		dst := d.U64()
		data := d.BlobRef()
		if err := d.Err(); err != nil {
			return err
		}
		mGPUHtoDBytes.Add(uint64(len(data)))
		end := trace.Of(p.Kernel()).Span(p, "driver", m.hal.dev.Name(), "dma-htod")
		err := m.ctx.HtoD(p, dst, data)
		end()
		return err
	case CallDtoH:
		src := d.U64()
		n := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if err := m.ctx.CheckRange(src, n); err != nil {
			return err
		}
		mGPUDtoHBytes.Add(n)
		end := trace.Of(p.Kernel()).Span(p, "driver", m.hal.dev.Name(), "dma-dtoh")
		err := m.ctx.DtoH(p, res.U32(uint32(n)).Reserve(int(n)), src)
		end()
		return err
	case CallLaunch:
		kname := m.kernels.Intern(d.StrRef())
		var grid gpu.Dim
		for i := range grid {
			grid[i] = int(d.U32())
		}
		// The arguments are decoded into storage this call owns — its stack
		// frame, or a slice of its own for an unusually long list — never
		// into the model: another ring's executor can be inside this same
		// model, asleep in its own launch, while this call runs.
		var inline [launchArgsInline]uint64
		var kargs []uint64
		if n := d.Count(8); n <= len(inline) {
			kargs = inline[:n]
		} else {
			kargs = make([]uint64, n)
		}
		for i := range kargs {
			kargs[i] = d.U64()
		}
		if err := d.Err(); err != nil {
			return err
		}
		mGPULaunches.Inc()
		end := trace.Of(p.Kernel()).Span(p, "driver", m.hal.dev.Name(), "kernel-launch")
		err := m.ctx.Launch(p, kname, grid, kargs...)
		end()
		wire.RecycleWords(kargs)
		return err
	case CallSync:
		// Device-level synchronization: in the model, launches already
		// completed when executed; charge the driver round trip.
		p.Sleep(m.hal.costs.DeviceMMIO)
		return nil
	}
	return fmt.Errorf("driver: unknown CUDA mECall %q", name)
}

// Destroy implements enclave.Model.
func (m *CUDAModel) Destroy(*sim.Proc) {
	if m.ctx != nil {
		m.hal.dev.DestroyContext(m.ctx)
		m.ctx = nil
	}
}

// launchArgsInline is how many kernel arguments a launch decodes without a
// heap slice: more than any registered kernel takes.
const launchArgsInline = 16

// EncodeLaunch appends cuLaunchKernel arguments to e and returns e's bytes —
// the one encoder of the launch format. A stream's caller encodes into the
// stream's own scratch (srpc.Client.Args), so a launch record costs no
// allocation; anyone else passes a fresh encoder.
func EncodeLaunch(e *wire.Encoder, kernel string, grid gpu.Dim, kargs ...uint64) []byte {
	e.Grow(4 + len(kernel) + 4*len(grid) + 4 + 8*len(kargs)).Str(kernel)
	for _, g := range grid {
		e.U32(uint32(g))
	}
	e.U32(uint32(len(kargs)))
	for _, a := range kargs {
		e.U64(a)
	}
	return e.Bytes()
}

// EncodeHtoD builds cuMemcpyHtoD arguments.
func EncodeHtoD(dst uint64, data []byte) []byte {
	return wire.NewEncoder().Grow(12 + len(data)).U64(dst).Blob(data).Bytes()
}

// HtoDHead returns the part of EncodeHtoD(dst, data) that precedes the data
// itself, for n bytes of data: the head of a vectored call (srpc.CallVec)
// whose bulk is the caller's own slice.
func HtoDHead(dst uint64, n int) (head [12]byte) {
	binary.LittleEndian.PutUint64(head[0:], dst)
	binary.LittleEndian.PutUint32(head[8:], uint32(n))
	return head
}

// DtoHHead returns cuMemcpyDtoH arguments as a value, so a caller can pass
// them from its stack the way it passes HtoDHead.
func DtoHHead(src, n uint64) (head [16]byte) {
	binary.LittleEndian.PutUint64(head[0:], src)
	binary.LittleEndian.PutUint64(head[8:], n)
	return head
}

// EncodeDtoH builds cuMemcpyDtoH arguments.
func EncodeDtoH(src uint64, n uint64) []byte {
	head := DtoHHead(src, n)
	return head[:]
}

// EncodeMemAlloc builds cuMemAlloc arguments.
func EncodeMemAlloc(n uint64) []byte { return wire.NewEncoder().U64(n).Bytes() }

// EncodeMemFree builds cuMemFree arguments.
func EncodeMemFree(ptr uint64) []byte { return wire.NewEncoder().U64(ptr).Bytes() }

// DecodePtr reads a device pointer reply (cuMemAlloc).
func DecodePtr(res []byte) (uint64, error) {
	d := wire.NewDecoder(res)
	p := d.U64()
	return p, d.Err()
}

// DecodeBlob reads a data reply (cuMemcpyDtoH).
func DecodeBlob(res []byte) ([]byte, error) {
	d := wire.NewDecoder(res)
	b := d.Blob()
	return b, d.Err()
}
