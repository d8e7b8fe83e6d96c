// Package hw simulates the hardware platform CRONUS runs on: a
// TrustZone-style machine with a secure and a normal world, physical memory
// filtered by a TZASC, peripherals filtered by a TZPC, an SMMU in front of
// device DMA, a device tree describing the platform, and a fuse bank holding
// the hardware roots of trust.
//
// Isolation is enforced the way the hardware enforces it: every access to
// physical memory or to a device is checked against the TZASC/TZPC/SMMU
// configuration, and violations surface as typed *Fault values — exactly the
// events the CRONUS proceed-trap failover protocol (§IV-D) is built on.
package hw

import "fmt"

// World identifies which TrustZone world an access originates from.
type World int

const (
	// NormalWorld is the untrusted world (rich OS, applications).
	NormalWorld World = iota
	// SecureWorld is the trusted world (SPM, mOSes, mEnclaves).
	SecureWorld
)

func (w World) String() string {
	if w == SecureWorld {
		return "secure"
	}
	return "normal"
}

// PA is a physical address.
type PA uint64

// PageSize is the translation granule used throughout the platform.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PFN returns the page frame number containing pa.
func (pa PA) PFN() uint64 { return uint64(pa) >> PageShift }

// Offset returns the offset of pa within its page.
func (pa PA) Offset() uint64 { return uint64(pa) & (PageSize - 1) }

// FaultKind classifies a hardware access fault.
type FaultKind int

const (
	// FaultTZASC: normal world touched secure memory (or vice-versa for
	// regions locked to one world).
	FaultTZASC FaultKind = iota
	// FaultTZPC: an access to a peripheral assigned to the other world.
	FaultTZPC
	// FaultUnmapped: no translation exists for the address.
	FaultUnmapped
	// FaultInvalidated: a translation existed but was invalidated — the
	// signal the SPM raises after a partition failure (§IV-D step ①).
	FaultInvalidated
	// FaultPerm: the mapping exists but forbids the access.
	FaultPerm
	// FaultSMMU: a device DMA missed or violated its SMMU mapping.
	FaultSMMU
)

func (k FaultKind) String() string {
	switch k {
	case FaultTZASC:
		return "tzasc"
	case FaultTZPC:
		return "tzpc"
	case FaultUnmapped:
		return "unmapped"
	case FaultInvalidated:
		return "invalidated"
	case FaultPerm:
		return "permission"
	case FaultSMMU:
		return "smmu"
	}
	return "unknown"
}

// Fault is a typed hardware access fault.
type Fault struct {
	Kind  FaultKind
	Space string // name of the address space or checker that faulted
	Addr  uint64 // faulting address (VA, IPA, IOVA or PA depending on Space)
	World World
}

func (f *Fault) Error() string {
	return fmt.Sprintf("hw: %s fault in %s at %#x (world=%s)", f.Kind, f.Space, f.Addr, f.World)
}

// Machine aggregates the simulated platform. Construct with NewMachine.
type Machine struct {
	Mem   *PhysMem
	TZASC *TZASC
	TZPC  *TZPC
	SMMU  *SMMU
	Bus   *Bus
	Fuses *FuseBank
	DT    *DeviceTree
	GIC   *GIC
}

// Config sizes the machine.
type Config struct {
	NormalMemBytes uint64 // normal-world DRAM
	SecureMemBytes uint64 // secure-world DRAM (TZASC-protected)
}

// NewMachine builds a machine: normal DRAM at [0, normal), secure DRAM at
// [normal, normal+secure), with the TZASC configured to protect the secure
// region, an empty TZPC, SMMU and PCIe bus.
func NewMachine(cfg Config) *Machine {
	tzasc := NewTZASC()
	tzasc.SetRegion(0, PA(0), cfg.NormalMemBytes, false)
	tzasc.SetRegion(1, PA(cfg.NormalMemBytes), cfg.SecureMemBytes, true)
	m := &Machine{
		Mem:   NewPhysMem(cfg.NormalMemBytes+cfg.SecureMemBytes, tzasc),
		TZASC: tzasc,
		TZPC:  NewTZPC(),
		Fuses: NewFuseBank(),
		DT:    &DeviceTree{},
	}
	m.SMMU = NewSMMU()
	m.Bus = NewBus(m)
	m.GIC = NewGIC(m.DT)
	// Frame allocators: normal world pages from low memory, secure pages
	// from the protected region.
	m.Mem.AddRegion("normal", PA(0), cfg.NormalMemBytes)
	m.Mem.AddRegion("secure", PA(cfg.NormalMemBytes), cfg.SecureMemBytes)
	return m
}

// SecureBase returns the base address of the secure DRAM region.
func (m *Machine) SecureBase() PA {
	r := m.Mem.Region("secure")
	return r.Base
}
