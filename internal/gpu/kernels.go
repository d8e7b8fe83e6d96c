package gpu

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strings"

	"cronus/internal/recycle"
	"cronus/internal/sim"
	"cronus/internal/trace"
)

// Dim is a kernel launch grid (blocks × threads folded into three axes).
type Dim [3]int

// Elems returns the total number of launch elements.
func (d Dim) Elems() int {
	n := 1
	for _, v := range d {
		if v > 0 {
			n *= v
		}
	}
	return n
}

// LaunchCost is the execution model of one kernel launch: Work is the ideal
// duration at full SM allocation, SMDemand is how many SMs the grid fills.
type LaunchCost struct {
	Work     sim.Duration
	SMDemand float64
}

// Exec is the environment a kernel function executes in.
type Exec struct {
	Ctx  *Context
	Grid Dim
	Args []uint64
}

// Bytes resolves a device pointer argument into device memory.
func (e *Exec) Bytes(ptr uint64, n int) ([]byte, error) { return e.Ctx.Resolve(ptr, n) }

// Arg returns the i-th launch argument.
func (e *Exec) Arg(i int) uint64 { return e.Args[i] }

// Int returns the i-th launch argument as the int64 it encodes, saturated to
// the range of int: where int is 32 bits a plain conversion would truncate
// 2^62 to 0 and let a hostile size pass as an empty one.
func (e *Exec) Int(i int) int {
	v := int64(e.Args[i])
	switch {
	case v > math.MaxInt:
		return math.MaxInt
	case v < math.MinInt:
		return math.MinInt
	}
	return int(v)
}

// F32 is a float32 view of device memory: indexing it reads and writes the
// device, there is no copy to write back. Only Exec.F32 and Exec.F32s hand
// one out, and it is valid until the kernel returns.
type F32 []float32

// F32 resolves a device pointer as a view of ∏dims float32s (one dimension
// for a vector, rows and columns for a matrix). The pointer must be 4-byte
// aligned (ErrMisaligned) and the elements inside one allocation
// (ErrInvalidPointer, as for a negative dimension or a product that wraps).
func (e *Exec) F32(ptr uint64, dims ...int) (F32, error) { return e.Ctx.f32(ptr, dims...) }

// F32s resolves launch arguments 0..len(dst)-1 as n-element views.
func (e *Exec) F32s(n int, dst ...*F32) error {
	for i, d := range dst {
		v, err := e.F32(e.Arg(i), n)
		if err != nil {
			return err
		}
		*d = v
	}
	return nil
}

// Scratch returns n float32s of the device's working memory, contents
// undefined, valid until the kernel returns. One arena per device is enough:
// a kernel Func never blocks and a sim kernel runs one process at a time, so
// no two kernels of a device are ever inside their Func together. The arena
// comes from the recycler and spans its backing's whole capacity, a power of
// two, so it grows geometrically; the one it outgrows goes back scrubbed.
func (e *Exec) Scratch(n int) []float32 {
	d := e.Ctx.dev
	if cap(d.scratch) < n {
		recycle.Float32s.Put(d.scratch)
		d.scratch = recycle.Float32s.Get(n)
		d.scratch = d.scratch[:cap(d.scratch)]
	}
	return d.scratch[:n]
}

// Kernel is a GPU kernel: a real computation plus its cost model.
type Kernel struct {
	Name string
	// Func performs the computation on device memory.
	Func func(e *Exec) error
	// Cost models the launch duration and SM footprint on a device with sms
	// SMs — the device the launch runs on, so one registration prices
	// every device in the process, whatever their sizes.
	Cost func(sms float64, grid Dim, args []uint64) LaunchCost
}

// registry maps kernel names to implementations — the simulation's stand-in
// for compiled SASS inside a cubin. Kernel libraries fill it at package init
// and concurrent simulations only read it, so it needs no lock.
var registry = make(map[string]*Kernel)

// Register installs a kernel implementation; re-registering a name replaces
// it. Call it before the first kernel runs: at package init, or from a test
// or example while no simulation is running.
func Register(k *Kernel) {
	if k.Name == "" || k.Func == nil || k.Cost == nil {
		panic("gpu: Register: kernel needs Name, Func and Cost")
	}
	registry[k.Name] = k
}

// BuildCubin serializes a module image referencing the named kernels. The
// bytes are what manifests hash and attestation measures.
func BuildCubin(names ...string) []byte {
	var b bytes.Buffer
	b.WriteString("CUBIN v1\n")
	for _, n := range names {
		fmt.Fprintf(&b, "kernel %s\n", n)
	}
	return b.Bytes()
}

// ParseCubin extracts the kernel names from a module image.
func ParseCubin(image []byte) ([]string, error) {
	sc := bufio.NewScanner(bytes.NewReader(image))
	if !sc.Scan() || sc.Text() != "CUBIN v1" {
		return nil, fmt.Errorf("gpu: not a cubin image")
	}
	var names []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		name, ok := strings.CutPrefix(line, "kernel ")
		if !ok {
			return nil, fmt.Errorf("gpu: bad cubin line %q", line)
		}
		names = append(names, name)
	}
	return names, nil
}

// LoadModule loads a cubin image into the context, binding each referenced
// kernel. Loading fails if a kernel is not present in the "hardware"
// registry (like a missing SASS section).
func (c *Context) LoadModule(image []byte) error {
	if err := c.Check(); err != nil {
		return err
	}
	names, err := ParseCubin(image)
	if err != nil {
		return err
	}
	for _, n := range names {
		k, ok := registry[n]
		if !ok {
			return fmt.Errorf("gpu: cubin references unknown kernel %q", n)
		}
		c.modules[n] = k
	}
	return nil
}

// Launch executes a kernel synchronously at driver level: the caller's proc
// occupies the SM engine for the modelled duration and the computation runs
// on device memory. Streaming/asynchrony is provided above this layer by
// sRPC (§IV-C).
func (c *Context) Launch(p *sim.Proc, name string, grid Dim, args ...uint64) error {
	if err := c.Check(); err != nil {
		return err
	}
	k, ok := c.modules[name]
	if !ok {
		return fmt.Errorf("%w: %q in context %d", ErrKernelNotLoaded, name, c.ID())
	}
	// The arguments are the caller's: they reach the kernel's Cost and Func
	// through the context's Exec, written here and again after the engine
	// sleep below, each time consumed before anything can sleep. A second
	// launch on this context may run in between (another ring's executor),
	// so nothing written before the sleep is read after it.
	cost := k.Cost(c.dev.SMs(), grid, c.execArgs(grid, args).Args)
	if c.dev.migSlices > 0 {
		// MIG: the kernel runs inside its context's static slice. Work
		// stretches by the demand it loses; the engine never sees
		// cross-tenant contention.
		slice := c.dev.sms.Capacity() / float64(c.dev.migSlices)
		if cost.SMDemand > slice {
			cost.Work = sim.Duration(float64(cost.Work) * cost.SMDemand / slice)
			cost.SMDemand = slice
		}
	}
	p.Sleep(c.dev.costs.KernelDispatch)
	c.dev.launches++
	if c.dev.hangAt[c.dev.launches] {
		// Chaos-injected hang: the launch was dispatched but never
		// completes. Park without touching the SM engine so co-resident
		// contexts see no contention; the parking proc is either killed
		// (partition failure, watchdog) or outlives the run harmlessly.
		delete(c.dev.hangAt, c.dev.launches)
		p.Sleep(hangPark)
		return fmt.Errorf("gpu: kernel %q launch hung (injected) and was released after %v", name, hangPark)
	}
	endSpan := trace.Of(p.Kernel()).Span(p, "gpu", c.dev.name, name)
	defer endSpan()
	if c.dev.mps || c.dev.migSlices > 0 {
		// Spatial sharing: kernels from different contexts share the
		// SM pool concurrently.
		c.dev.sms.Run(p, cost.SMDemand, cost.Work)
	} else {
		c.dev.runExclusive(p, cost)
	}
	if err := c.Check(); err != nil {
		// The device was reset (partition failure) while we computed.
		return err
	}
	return k.Func(c.execArgs(grid, args))
}

// runExclusive holds the whole device for one kernel; a killed launcher lets go.
func (d *Device) runExclusive(p *sim.Proc, cost LaunchCost) {
	d.exclusive.Acquire(p, 1)
	defer d.exclusive.Release(1)
	d.sms.Run(p, cost.SMDemand, cost.Work)
}

// execArgs loads a launch's grid and arguments into the context's Exec and
// returns it, for use before the caller next sleeps.
func (c *Context) execArgs(grid Dim, args []uint64) *Exec {
	c.exec.Grid = grid
	c.exec.Args = append(c.exec.Args[:0], args...)
	return &c.exec
}
