// Package gpu implements the functional GPU device model used by CRONUS's
// CUDA mEnclaves: device memory with per-context virtual-address isolation,
// a kernel execution engine modelling streaming-multiprocessor occupancy
// (with MPS-style spatial sharing), DMA copy engines, PCIe peer-to-peer
// copies, and a fused device key for hardware authenticity attestation.
//
// Kernels really execute: they are Go functions operating on device memory,
// registered in a global registry and referenced from "cubin" module images,
// so workloads produce verifiable numerical results while the engine charges
// calibrated virtual time.
package gpu

import (
	"errors"
	"fmt"
	"math/bits"

	"cronus/internal/attest"
	"cronus/internal/devmem"
	"cronus/internal/recycle"
	"cronus/internal/sim"
)

// Device is one GPU. It implements hw.Device.
type Device struct {
	name  string
	costs *sim.CostModel
	mem   devmem.Device[float32]

	sms       *sim.PSEngine // compute engine (SM pool)
	copyEng   *sim.Resource // DMA copy engines
	exclusive *sim.Resource // whole-device lock when MPS is off
	mps       bool          // spatial sharing enabled
	migSlices int           // >0: MIG-style static SM slices

	scratch []float32 // kernel working set, see Exec.Scratch

	launches uint64          // device-lifetime kernel launch ordinal
	hangAt   map[uint64]bool // chaos: launch ordinals that never complete

	priv attest.PrivateKey // fused device key (PvK_acc)
}

// Config sizes a GPU.
type Config struct {
	Name     string
	MemBytes uint64
	SMs      int
	CopyEngs int
	MPS      bool   // allow concurrent kernels from different contexts
	KeySeed  string // device key fuse material
}

// TuringConfig is the paper's GTX 2080 (Table II) with 1 GiB of memory,
// scaled down for simulation: CRONUS's platform and the baselines both build
// their GPUs from it. The nouveau/gdev stack in the paper has no MIG, but the
// GPU model supports MPS-style concurrent kernel execution (§VI-C).
func TuringConfig(name string) Config {
	return Config{Name: name, MemBytes: 1 << 30, SMs: 46, CopyEngs: 2, MPS: true, KeySeed: "turing/" + name}
}

// New creates a GPU device exactly as cfg sizes it. Its memory goes back to
// the recycler when k shuts down.
func New(k *sim.Kernel, costs *sim.CostModel, cfg Config) *Device {
	d := &Device{
		name:      cfg.Name,
		costs:     costs,
		sms:       sim.NewPSEngine(k, cfg.Name+"/sms", float64(cfg.SMs)),
		copyEng:   sim.NewResource(k, cfg.Name+"/copy", cfg.CopyEngs),
		exclusive: sim.NewResource(k, cfg.Name+"/excl", 1),
		mps:       cfg.MPS,
		priv:      attest.KeyFromSeed([]byte("gpu-device-key/" + cfg.KeySeed)),
	}
	d.mem = devmem.New(devmem.Errors{Kind: "gpu", Stale: ErrStaleContext, InvalidPointer: ErrInvalidPointer, OutOfMemory: ErrOutOfMemory},
		cfg.MemBytes, &recycle.Float32s, Bytes, func(p *sim.Proc, n int) { d.copyEng.Use(p, 1, costs.DMA(n)) })
	k.AtShutdown(d.dropContexts)
	return d
}

// Name implements hw.Device.
func (d *Device) Name() string { return d.name }

// SMs returns the compute capacity in SM units.
func (d *Device) SMs() float64 { return d.sms.Capacity() }

// MemBytes returns total device memory.
func (d *Device) MemBytes() uint64 { return d.mem.MemBytes() }

// MemUsed returns allocated device memory.
func (d *Device) MemUsed() uint64 { return d.mem.MemUsed() }

// SetMPS enables or disables spatial sharing (concurrent kernels from
// different contexts).
func (d *Device) SetMPS(on bool) { d.mps = on }

// MPS reports whether spatial sharing is enabled.
func (d *Device) MPS() bool { return d.mps }

// ConfigureMIG statically partitions the SM pool into n equal slices
// (NVIDIA MIG-style, the isolation mechanism §V-B notes CRONUS would use
// when hardware provides it): every kernel's demand is capped to one
// slice, so tenants can never contend — stronger isolation than MPS at the
// cost of leaving capacity idle when a kernel could have used more.
// n = 0 disables MIG.
func (d *Device) ConfigureMIG(n int) {
	d.migSlices = n
}

// Reset implements hw.Device: it drops every context and scrubs all device
// memory — the SPM's failure-clearing hook (A3).
func (d *Device) Reset() {
	d.dropContexts()
	d.sms.Drain()
}

// dropContexts scrubs every span and the scratch arena into the recycler and
// makes every context stale: Reset, and the end of the kernel the device
// lives on.
func (d *Device) dropContexts() {
	d.mem.Reset()
	recycle.Float32s.Put(d.scratch)
	d.scratch = nil
}

// hangPark is how long a hang-injected launch parks: far beyond any
// experiment window, but far from the int64 horizon so arithmetic on
// now+hangPark cannot overflow.
const hangPark = sim.Duration(1) << 61

// ArmLaunchHang makes the n-th kernel launch on this device (1-based,
// counted over the device's lifetime across all contexts) hang: the
// launching proc parks for hangPark virtual time without ever occupying the
// SM engine, modelling a wedged command queue. The arm is one-shot. Chaos
// uses this to exercise the serving plane's per-request timeout + retry
// path; co-resident contexts are unaffected because no engine capacity is
// held while parked.
func (d *Device) ArmLaunchHang(n uint64) {
	if d.hangAt == nil {
		d.hangAt = make(map[uint64]bool)
	}
	d.hangAt[n] = true
}

// Launches returns the device-lifetime kernel launch count.
func (d *Device) Launches() uint64 { return d.launches }

// PubKey returns the device's authenticity public key (PubK_acc).
func (d *Device) PubKey() attest.PublicKey { return d.priv.Public().(attest.PublicKey) }

// Authenticate signs a challenge, proving possession of the fused key — the
// mOS uses this to verify the accelerator is genuine before registering it
// for attestation (§IV-A).
func (d *Device) Authenticate(challenge []byte) []byte {
	return attest.Sign(d.priv, challenge)
}

// CreateContext makes an isolated GPU context (own VA space, own memory).
func (d *Device) CreateContext() *Context {
	c := &Context{dev: d, modules: make(map[string]*Kernel)}
	d.mem.Open(&c.Space)
	c.exec.Ctx = c
	return c
}

// DestroyContext frees all of a context's memory (scrubbed); every later use
// of c is ErrStaleContext.
func (d *Device) DestroyContext(c *Context) { d.mem.Close(&c.Space) }

// The typed faults of GPU memory (devmem.Errors).
var (
	ErrStaleContext   = errors.New("gpu: context destroyed or reset")
	ErrInvalidPointer = errors.New("gpu: invalid device pointer")
	ErrOutOfMemory    = errors.New("gpu: out of device memory")
)

// ErrMisaligned reports a float32 access through a device pointer that is
// not a multiple of 4 — the misaligned-address fault of a real GPU. It is
// decided on the device VA, never on a host address, so it is deterministic.
var ErrMisaligned = errors.New("gpu: misaligned device pointer")

// ErrKernelNotLoaded refuses a launch of a kernel no module of the context
// holds.
var ErrKernelNotLoaded = errors.New("gpu: kernel not loaded")

// Context is a GPU context: an isolated VA space of 4-byte words, so a float32
// view is aligned by its type (floats in host byte order), and its modules.
type Context struct {
	devmem.Space[float32]
	dev     *Device
	modules map[string]*Kernel
	// exec is the environment of the launch running on this context, loaded
	// by execArgs just before the kernel's Cost or Func reads it.
	exec Exec
}

// f32 returns the device memory at ptr as a float32 view of ∏dims elements —
// the memory itself, not a copy. Launch arguments are the caller's, so this
// is where an element count is checked, once: no negative dimension, no
// product that wraps, nothing past the end of the span.
func (c *Context) f32(ptr uint64, dims ...int) (F32, error) {
	s, off, err := c.Locate(ptr)
	if err != nil {
		return nil, err
	}
	if ptr%4 != 0 {
		return nil, fmt.Errorf("%w %#x in context %d", ErrMisaligned, ptr, c.ID())
	}
	n, fits := uint64(1), s != nil
	for _, d := range dims {
		hi, lo := bits.Mul64(n, uint64(d))
		fits = fits && d >= 0 && hi == 0
		n = lo
	}
	if !fits || n > (s.Size-off)/4 {
		return nil, fmt.Errorf("%w %#x (float32 × %d) in context %d", ErrInvalidPointer, ptr, n, c.ID())
	}
	return s.Words[off/4 : off/4+n : len(s.Words)], nil
}

// DtoD copies within the device (no PCIe; modelled at memcpy bandwidth).
func (c *Context) DtoD(p *sim.Proc, dst, src uint64, n int) error {
	return devmem.Transfer(&c.Space, dst, &c.Space, src, nil, n, func() { c.dev.copyEng.Use(p, 1, c.dev.costs.Memcpy(n)) })
}

// CopyPeer copies between two devices over PCIe (GPU P2P, Figure 11b): both
// devices' copy engines are busy for the transfer (a kill releases them).
func CopyPeer(p *sim.Proc, dst *Context, dstPtr uint64, src *Context, srcPtr uint64, n int) error {
	return devmem.Transfer(&dst.Space, dstPtr, &src.Space, srcPtr, nil, n, func() {
		src.dev.copyEng.Acquire(p, 1)
		defer src.dev.copyEng.Release(1)
		dst.dev.copyEng.Acquire(p, 1)
		defer dst.dev.copyEng.Release(1)
		p.Sleep(src.dev.costs.DMA(n))
	})
}
