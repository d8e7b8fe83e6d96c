package hw

import "fmt"

// Device is the contract every peripheral on the bus fulfils. Concrete
// devices (the GPU and NPU models) live in their own packages and expose
// richer typed APIs; the bus only needs identity and the ability to scrub
// all internal state, which the SPM's failure-clearing logic (§IV-D step ②)
// depends on.
type Device interface {
	Name() string
	Reset()
}

// Bus is the (simulated) PCIe fabric. Following the paper's QEMU setup
// (§V-A), devices bound to the secure world live on a "secure" bus segment:
// their MMIO is filtered by the TZPC and their DMA is constrained by the
// SMMU to the memory the SPM mapped for them.
type Bus struct {
	m       *Machine
	devices map[string]Device
	nodes   map[string]DTNode
}

// NewBus creates an empty bus for the machine.
func NewBus(m *Machine) *Bus {
	return &Bus{m: m, devices: make(map[string]Device), nodes: make(map[string]DTNode)}
}

// Attach registers a device under its device tree node and configures the
// TZPC if the node assigns it to the secure world. It returns the DMA port
// the device uses for host memory access.
func (b *Bus) Attach(dev Device, node DTNode) (*DMAPort, error) {
	if dev.Name() != node.Name {
		return nil, fmt.Errorf("hw: device %q does not match DT node %q", dev.Name(), node.Name)
	}
	if _, dup := b.devices[node.Name]; dup {
		return nil, fmt.Errorf("hw: device %q already attached", node.Name)
	}
	if err := b.m.DT.Add(node); err != nil {
		return nil, err
	}
	b.devices[node.Name] = dev
	b.nodes[node.Name] = node
	if node.Secure {
		if err := b.m.TZPC.SetSecure(node.Name, true); err != nil {
			return nil, err
		}
		if node.IRQ >= 0 {
			if err := b.m.GIC.ConfigureSecure(node.IRQ, true); err != nil {
				return nil, err
			}
		}
	}
	world := NormalWorld
	if node.Secure {
		world = SecureWorld
	}
	return &DMAPort{bus: b, dev: node.Name, world: world}, nil
}

// CheckMMIO validates that world w may touch the device's registers.
func (b *Bus) CheckMMIO(w World, dev string) error {
	if _, ok := b.devices[dev]; !ok {
		return fmt.Errorf("hw: no device %q on bus", dev)
	}
	return b.m.TZPC.Check(w, dev)
}

// RaiseIRQ fires the device's device-tree-assigned interrupt line.
func (b *Bus) RaiseIRQ(dev string) error {
	node, ok := b.nodes[dev]
	if !ok {
		return fmt.Errorf("hw: no device %q on bus", dev)
	}
	return b.m.GIC.Raise(dev, node.IRQ)
}

// ResetDevice scrubs a device's internal state (SPM failure clearing).
func (b *Bus) ResetDevice(dev string) error {
	d, ok := b.devices[dev]
	if !ok {
		return fmt.Errorf("hw: no device %q on bus", dev)
	}
	d.Reset()
	return nil
}

// DMAPort gives one device DMA access to host physical memory through the
// SMMU. The port carries the device's world identity: a secure-bus device
// reaches secure memory, a normal-bus device is blocked by the TZASC. No
// device model holds its port yet (ROADMAP item 27), so Read and Write, the
// transfers through it, live in export_test.go for hw's tests.
type DMAPort struct {
	bus   *Bus
	dev   string
	world World
}

func (d *DMAPort) transfer(iova uint64, buf []byte, write bool) error {
	want := PermR
	if write {
		want = PermW
	}
	off := 0
	for off < len(buf) {
		cur := iova + uint64(off)
		pa, f := d.bus.m.SMMU.Translate(d.dev, cur, want)
		if f != nil {
			f.World = d.world
			return f
		}
		n := PageSize - int(cur&(PageSize-1))
		if n > len(buf)-off {
			n = len(buf) - off
		}
		var err error
		if write {
			err = d.bus.m.Mem.Write(d.world, pa, buf[off:off+n])
		} else {
			err = d.bus.m.Mem.Read(d.world, pa, buf[off:off+n])
		}
		if err != nil {
			return err
		}
		off += n
	}
	return nil
}
