package enclave

import (
	"fmt"

	"cronus/internal/sim"
	"cronus/internal/wire"
)

// Model is the execution-model contract (§IV-A): the mEnclave is a black-box
// executor ⟨mECalls, state⟩; the model defines how an image is loaded
// (me_create) and how each mECall executes on the underlying device context.
//
// Implementations: the CPU model runs registered Go functions (standing in
// for a dynamic library + libOS runtime), the CUDA model drives a GPU
// context through the gdev-style driver API, and the NPU model drives a VTA
// context.
type Model interface {
	// Create parses the image and initializes the executor (me_create).
	Create(p *sim.Proc, image []byte) error
	// Call executes one mECall with wire-encoded arguments and appends its
	// wire-encoded result to res (nothing for a call that returns no data).
	//
	// Lifetime: args is lent for the duration of the call only. It aliases
	// a buffer the transport recycles — the sRPC executor's staging buffer
	// or a sealed message — so an implementation must consume it (copy it
	// into device memory, decode it) before returning and must not retain
	// it or any sub-slice of it. res is likewise the transport's: append
	// to it, never keep it. What a failed call appended is discarded. sc is
	// the calling thread's Scratch, nil when the transport lends none.
	Call(p *sim.Proc, name string, args []byte, res *wire.Encoder, sc *Scratch) error
	// Destroy releases device state (scrubbed).
	Destroy(p *sim.Proc)
}

// Scratch is storage a transport thread owns and lends to every mECall it
// runs, one call at a time: the sRPC executor keeps one per stream. A model
// that decodes arguments into a buffer it reuses keeps the buffer here, not
// in itself — another stream's executor can be inside the same model, asleep
// mid-call, and would overwrite it. What V holds is the model's.
type Scratch struct{ V any }

// CPUFunc is one entry point of a CPU mEnclave's "dynamic library". args
// follows Model.Call's lifetime rule; the returned bytes are copied into the
// reply before the call completes, so they may alias args (an echo) or
// storage the function reuses.
type CPUFunc func(p *sim.Proc, args []byte) ([]byte, error)

// CPULibrary is the loadable content of a CPU mEnclave image: a named set of
// entry points. In the paper this is a .so run on a musl/libOS runtime; in
// the simulation the library is registered under a name and the image bytes
// reference it (so the image is still measured and attested).
type CPULibrary struct {
	Name  string
	Funcs map[string]CPUFunc
}

// cpuLibRegistry is the simulation's loader search path.
var cpuLibRegistry = map[string]*CPULibrary{}

// RegisterCPULibrary installs a library so images can reference it.
func RegisterCPULibrary(lib *CPULibrary) {
	if lib.Name == "" {
		panic("enclave: CPU library needs a name")
	}
	cpuLibRegistry[lib.Name] = lib
}

// BuildCPUImage returns the image bytes referencing a registered library.
func BuildCPUImage(libName string) []byte {
	return []byte("CPULIB v1\n" + libName + "\n")
}

// CPUModel executes CPU mECalls from a registered library.
type CPUModel struct {
	lib   *CPULibrary
	costs *sim.CostModel
}

// NewCPUModel creates an unloaded CPU model.
func NewCPUModel(costs *sim.CostModel) *CPUModel { return &CPUModel{costs: costs} }

// Create implements Model.
func (m *CPUModel) Create(p *sim.Proc, image []byte) error {
	var name string
	if n, err := fmt.Sscanf(string(image), "CPULIB v1\n%s\n", &name); n != 1 || err != nil {
		return fmt.Errorf("enclave: not a CPU library image")
	}
	lib, ok := cpuLibRegistry[name]
	if !ok {
		return fmt.Errorf("enclave: CPU library %q not found", name)
	}
	m.lib = lib
	p.Sleep(m.costs.EnclaveEntry) // loader + relocation work
	return nil
}

// Call implements Model.
func (m *CPUModel) Call(p *sim.Proc, name string, args []byte, res *wire.Encoder, _ *Scratch) error {
	if m.lib == nil {
		return fmt.Errorf("enclave: CPU model not created")
	}
	fn, ok := m.lib.Funcs[name]
	if !ok {
		return fmt.Errorf("enclave: no entry point %q in library %q", name, m.lib.Name)
	}
	out, err := fn(p, args)
	if err != nil {
		return err
	}
	copy(res.Reserve(len(out)), out)
	return nil
}

// Destroy implements Model.
func (m *CPUModel) Destroy(*sim.Proc) { m.lib = nil }
