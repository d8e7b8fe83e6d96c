package hw

// Delivered returns how many times a line fired.
func (g *GIC) Delivered(irq int) int { return g.delivered[irq] }

// IsSecure reports whether pa falls inside a secure region.
func (t *TZASC) IsSecure(pa PA) bool {
	secure, _ := t.lookup(pa)
	return secure
}

// Size returns the total physical address space size in bytes, 0 once the
// memory is released.
func (m *PhysMem) Size() uint64 { return m.size }

// Read DMAs len(buf) bytes from host memory at iova into the device.
func (d *DMAPort) Read(iova uint64, buf []byte) error {
	return d.transfer(iova, buf, false)
}

// Write DMAs data from the device into host memory at iova.
func (d *DMAPort) Write(iova uint64, data []byte) error {
	return d.transfer(iova, data, true)
}
