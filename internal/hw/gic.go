package hw

import "fmt"

// IRQHandler is invoked (in the raiser's simulated context) when a line
// fires.
type IRQHandler func()

// GIC is the interrupt controller. Like the TZPC for MMIO, it partitions
// interrupt lines between the worlds, and — using the validated, frozen
// device tree — it refuses interrupt spoofing: a source may only raise the
// line the device tree assigned to it (§IV-A's TrustPath-style defence
// against "interrupt spoofing attacks").
type GIC struct {
	dt       *DeviceTree
	secure   map[int]bool
	handlers map[int]irqSlot
	locked   bool
	// Delivered counts per line, for drivers and tests.
	delivered map[int]int
}

type irqSlot struct {
	world World
	h     IRQHandler
}

// NewGIC creates a controller bound to the platform device tree.
func NewGIC(dt *DeviceTree) *GIC {
	return &GIC{
		dt:        dt,
		secure:    make(map[int]bool),
		handlers:  make(map[int]irqSlot),
		delivered: make(map[int]int),
	}
}

// ConfigureSecure assigns a line to the secure world. Fails after Lock.
func (g *GIC) ConfigureSecure(irq int, secure bool) error {
	if g.locked {
		return fmt.Errorf("hw: GIC locked")
	}
	g.secure[irq] = secure
	return nil
}

// Lock freezes the world assignment (done by the secure monitor at boot).
func (g *GIC) Lock() { g.locked = true }

// Register installs a handler for a line. A secure line only accepts a
// secure-world handler; registering from the normal world for a secure line
// is refused (the mirror of the TZPC check).
func (g *GIC) Register(irq int, w World, h IRQHandler) error {
	if g.secure[irq] && w != SecureWorld {
		return &Fault{Kind: FaultTZPC, Space: fmt.Sprintf("gic:irq%d", irq), World: w}
	}
	g.handlers[irq] = irqSlot{world: w, h: h}
	return nil
}

// Raise fires a line on behalf of a named source device. The source must be
// the device-tree owner of that line: a malicious or misconfigured device
// cannot inject interrupts bound to another device's driver.
func (g *GIC) Raise(source string, irq int) error {
	node, ok := g.dt.Find(source)
	if !ok {
		return fmt.Errorf("hw: interrupt from unknown source %q", source)
	}
	if node.IRQ != irq {
		return fmt.Errorf("hw: interrupt spoofing rejected: %q owns IRQ %d, raised %d", source, node.IRQ, irq)
	}
	g.delivered[irq]++
	if slot, ok := g.handlers[irq]; ok && slot.h != nil {
		slot.h()
	}
	return nil
}
