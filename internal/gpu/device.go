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
	"math"
	"math/bits"
	"sort"

	"cronus/internal/attest"
	"cronus/internal/sim"
)

// Device is one GPU. It implements hw.Device.
type Device struct {
	name    string
	k       *sim.Kernel
	costs   *sim.CostModel
	memSize uint64
	memUsed uint64

	sms       *sim.PSEngine // compute engine (SM pool)
	copyEng   *sim.Resource // DMA copy engines
	exclusive *sim.Resource // whole-device lock when MPS is off
	mps       bool          // spatial sharing enabled
	migSlices int           // >0: MIG-style static SM slices
	contexts  map[int]*Context
	nextCtx   int
	gen       uint64 // bumped on Reset; stale contexts die

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

// New creates a GPU device exactly as cfg sizes it.
func New(k *sim.Kernel, costs *sim.CostModel, cfg Config) *Device {
	return &Device{
		name:      cfg.Name,
		k:         k,
		costs:     costs,
		memSize:   cfg.MemBytes,
		sms:       sim.NewPSEngine(k, cfg.Name+"/sms", float64(cfg.SMs)),
		copyEng:   sim.NewResource(k, cfg.Name+"/copy", cfg.CopyEngs),
		exclusive: sim.NewResource(k, cfg.Name+"/excl", 1),
		mps:       cfg.MPS,
		contexts:  make(map[int]*Context),
		priv:      attest.KeyFromSeed([]byte("gpu-device-key/" + cfg.KeySeed)),
	}
}

// Name implements hw.Device.
func (d *Device) Name() string { return d.name }

// SMs returns the compute capacity in SM units.
func (d *Device) SMs() float64 { return d.sms.Capacity() }

// MemBytes returns total device memory.
func (d *Device) MemBytes() uint64 { return d.memSize }

// MemUsed returns allocated device memory.
func (d *Device) MemUsed() uint64 { return d.memUsed }

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
	for _, c := range d.contexts {
		for _, s := range c.spans {
			clear(s.words)
		}
	}
	d.contexts = make(map[int]*Context)
	d.memUsed = 0
	d.gen++
	d.sms.Drain()
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
	d.nextCtx++
	c := &Context{id: d.nextCtx, dev: d, gen: d.gen, modules: make(map[string]*Kernel)}
	c.exec.Ctx = c
	d.contexts[c.id] = c
	return c
}

// DestroyContext frees all of a context's memory (scrubbed).
func (d *Device) DestroyContext(c *Context) {
	if d.contexts[c.id] != c {
		return
	}
	for _, s := range c.spans {
		clear(s.words)
		d.memUsed -= s.size
	}
	c.spans = nil
	delete(d.contexts, c.id)
}

// ErrStaleContext reports use of a context from before a device reset.
var ErrStaleContext = fmt.Errorf("gpu: context predates device reset")

// ErrInvalidPointer reports a device range that is not inside one live
// allocation of the context: a forged or freed pointer, a length or element
// count running past the allocation's end, a negative one, or dimensions
// whose product does not fit a machine word.
var ErrInvalidPointer = errors.New("gpu: invalid device pointer")

// ErrMisaligned reports a float32 access through a device pointer that is
// not a multiple of 4 — the misaligned-address fault of a real GPU. It is
// decided on the device VA, never on a host address, so it is deterministic.
var ErrMisaligned = errors.New("gpu: misaligned device pointer")

// span is one device memory allocation (contiguous VA and backing). The
// backing is allocated as 4-byte words, so every float32 view of it is
// aligned by its type, whatever the allocator returned; buf is the same
// memory as bytes, cut to size. Floats sit in it in host byte order, as a
// GPU shares its host's.
type span struct {
	va    uint64
	size  uint64
	words []float32
	buf   []byte
}

// Context is a GPU context: an isolated VA space with its loaded modules.
// Contexts are how CRONUS isolates co-resident CUDA mEnclaves on one GPU
// (§V-B "GPU virtual address isolation").
type Context struct {
	id      int
	dev     *Device
	gen     uint64
	spans   []*span // sorted by va: nextVA only grows, so append keeps the order
	nextVA  uint64
	modules map[string]*Kernel
	// exec is the environment of the launch running on this context, loaded
	// by execArgs just before the kernel's Cost or Func reads it.
	exec Exec
}

func (c *Context) check() error {
	if c.gen != c.dev.gen {
		return ErrStaleContext
	}
	return nil
}

// MemAlloc allocates n bytes of device memory and returns its device VA.
func (c *Context) MemAlloc(n uint64) (uint64, error) {
	if err := c.check(); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("gpu: zero-byte allocation")
	}
	if c.dev.memUsed+n > c.dev.memSize {
		return 0, fmt.Errorf("gpu: out of device memory (%d used of %d)", c.dev.memUsed, c.dev.memSize)
	}
	// VA layout: context id in the top bits makes cross-context pointer
	// forgery structurally impossible to resolve.
	va := uint64(c.id)<<40 | (c.nextVA + 0x1000)
	c.nextVA += (n + 0xfff) &^ 0xfff
	words := make([]float32, (n+3)/4)
	c.spans = append(c.spans, &span{va: va, size: n, words: words, buf: Bytes(words)[:n]})
	c.dev.memUsed += n
	return va, nil
}

// MemFree releases an allocation (scrubbed).
func (c *Context) MemFree(va uint64) error {
	for i, s := range c.spans {
		if s.va == va {
			clear(s.words)
			c.dev.memUsed -= s.size
			c.spans = append(c.spans[:i], c.spans[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("gpu: MemFree(%#x): no such allocation", va)
}

// locate finds the live span holding ptr and ptr's offset into it; s is nil
// when no allocation of this context does.
func (c *Context) locate(ptr uint64) (s *span, off uint64, err error) {
	if err := c.check(); err != nil {
		return nil, 0, err
	}
	i := sort.Search(len(c.spans), func(i int) bool { return c.spans[i].va+c.spans[i].size > ptr })
	if i < len(c.spans) && ptr >= c.spans[i].va {
		return c.spans[i], ptr - c.spans[i].va, nil
	}
	return nil, 0, nil
}

// resolve returns the device memory [ptr, ptr+n), which must lie inside one
// span.
func (c *Context) resolve(ptr uint64, n int) ([]byte, error) {
	s, off, err := c.locate(ptr)
	if err != nil {
		return nil, err
	}
	if s == nil || n < 0 || uint64(n) > s.size-off {
		return nil, fmt.Errorf("%w %#x (+%d) in context %d", ErrInvalidPointer, ptr, n, c.id)
	}
	return s.buf[off : off+uint64(n)], nil
}

// f32 returns the device memory at ptr as a float32 view of ∏dims elements —
// the memory itself, not a copy. Launch arguments are the caller's, so this
// is where an element count is checked, once: no negative dimension, no
// product that wraps, nothing past the end of the span.
func (c *Context) f32(ptr uint64, dims ...int) (F32, error) {
	s, off, err := c.locate(ptr)
	if err != nil {
		return nil, err
	}
	if ptr%4 != 0 {
		return nil, fmt.Errorf("%w %#x in context %d", ErrMisaligned, ptr, c.id)
	}
	n, fits := uint64(1), s != nil
	for _, d := range dims {
		hi, lo := bits.Mul64(n, uint64(d))
		fits = fits && d >= 0 && hi == 0
		n = lo
	}
	if !fits || n > (s.size-off)/4 {
		return nil, fmt.Errorf("%w %#x (float32 × %d) in context %d", ErrInvalidPointer, ptr, n, c.id)
	}
	return s.words[off/4 : off/4+n], nil
}

// CheckRange reports whether [ptr, ptr+n) lies inside one live allocation of
// this context, with the error a transfer over that range would return. A
// driver asks before it sizes a host-side buffer from a length the caller
// supplied.
func (c *Context) CheckRange(ptr, n uint64) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("gpu: transfer of %d bytes exceeds the device", n)
	}
	_, err := c.resolve(ptr, int(n))
	return err
}

// HtoD copies host bytes to device memory, occupying a copy engine for the
// PCIe transfer time.
func (c *Context) HtoD(p *sim.Proc, dst uint64, src []byte) error {
	buf, err := c.resolve(dst, len(src))
	if err != nil {
		return err
	}
	c.dev.copyEng.Use(p, 1, c.dev.costs.DMA(len(src)))
	copy(buf, src)
	return nil
}

// DtoH copies device memory to host bytes.
func (c *Context) DtoH(p *sim.Proc, dst []byte, src uint64) error {
	buf, err := c.resolve(src, len(dst))
	if err != nil {
		return err
	}
	c.dev.copyEng.Use(p, 1, c.dev.costs.DMA(len(dst)))
	copy(dst, buf)
	return nil
}

// DtoD copies within the device (no PCIe; modelled at memcpy bandwidth).
func (c *Context) DtoD(p *sim.Proc, dst, src uint64, n int) error {
	sb, err := c.resolve(src, n)
	if err != nil {
		return err
	}
	db, err := c.resolve(dst, n)
	if err != nil {
		return err
	}
	c.dev.copyEng.Use(p, 1, c.dev.costs.Memcpy(n))
	copy(db, sb)
	return nil
}

// CopyPeer copies between two devices over PCIe (GPU P2P, Figure 11b).
func CopyPeer(p *sim.Proc, dst *Context, dstPtr uint64, src *Context, srcPtr uint64, n int) error {
	sb, err := src.resolve(srcPtr, n)
	if err != nil {
		return err
	}
	db, err := dst.resolve(dstPtr, n)
	if err != nil {
		return err
	}
	// Both devices' copy engines are busy for the transfer (a kill releases).
	src.dev.copyEng.Acquire(p, 1)
	defer src.dev.copyEng.Release(1)
	dst.dev.copyEng.Acquire(p, 1)
	defer dst.dev.copyEng.Release(1)
	p.Sleep(src.dev.costs.DMA(n))
	copy(db, sb)
	return nil
}
