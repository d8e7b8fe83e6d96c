package driver

import (
	"encoding/binary"
	"fmt"

	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/trace"
	"cronus/internal/wire"
)

// GPU is the GPU partition's HAL: the nouveau-style driver plus the
// gdev-style runtime factory. It authenticates the physical device at init
// and hands each CUDA mEnclave an isolated GPU context (§V-B).
type GPU struct {
	accel
	dev *gpu.Device
}

// NewGPU creates the GPU HAL for a device whose key the named vendor
// endorsed with cert.
func NewGPU(dev *gpu.Device, costs *sim.CostModel, vendor string, cert []byte) *GPU {
	return &GPU{dev: dev, accel: accel{kind: "gpu", dev: dev, costs: costs, vendor: vendor, cert: cert,
		calls: memCalls{CallMemAlloc, CallHtoD, CallDtoH, CallSync, mGPUHtoDBytes, mGPUDtoHBytes}}}
}

// NewModel implements mos.HAL.
func (g *GPU) NewModel(p *sim.Proc) (enclave.Model, error) {
	g.enter(p)
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

// cudaEDL is the text of CUDAEDL, what enclave.BuildEDL writes for its
// table, spelled out so no create formats it.
const cudaEDL = "// CRONUS EDL\n" +
	"mecall " + CallMemAlloc + " sync\n" +
	"mecall " + CallMemFree + " async\n" +
	"mecall " + CallHtoD + " async\n" +
	"mecall " + CallDtoH + " sync\n" +
	"mecall " + CallLaunch + " async\n" +
	"mecall " + CallSync + " sync\n"

// CUDAEDL returns the EDL for CUDA mEnclaves: launches and HtoD copies
// stream asynchronously; allocation and DtoH return data, so they are
// synchronous (§IV-C: "checks the progress ... only when it needs data").
// The slice is the caller's.
func CUDAEDL() []byte { return []byte(cudaEDL) }

// Call implements enclave.Model: the memory mECalls are the HAL's
// (memCall), the rest the CUDA driver's.
func (m *CUDAModel) Call(p *sim.Proc, name string, args []byte, res *wire.Encoder, _ *enclave.Scratch) error {
	if m.ctx == nil {
		return fmt.Errorf("driver: CUDA model not created")
	}
	if ok, err := memCall(&m.hal.accel, p, &m.ctx.Space, name, args, res); ok {
		return err
	}
	d := wire.NewDecoder(args)
	switch name {
	case CallMemFree:
		ptr := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		return m.ctx.MemFree(ptr)
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
