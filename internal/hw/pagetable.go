package hw

// Perm is a page permission mask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	// PermRW is the common read-write mapping.
	PermRW = PermR | PermW
)

// PTE is one page table entry.
type PTE struct {
	Frame uint64 // target page frame number
	Perm  Perm
	Valid bool // false after explicit invalidation (faults differently)
}

// AddrSpace is a single-level page table mapping page numbers in one address
// domain to frame numbers in another. It is used for mEnclave stage-1 tables
// (VA→IPA), partition stage-2 tables (IPA→PA) and SMMU stream tables
// (IOVA→PA).
type AddrSpace struct {
	Name    string
	entries map[uint64]PTE
	gen     uint64 // bumped on every change, for TLB-style caching upstream
}

// NewAddrSpace creates an empty address space.
func NewAddrSpace(name string) *AddrSpace {
	return &AddrSpace{Name: name, entries: make(map[uint64]PTE)}
}

// Gen returns the mutation generation (any change bumps it).
func (a *AddrSpace) Gen() uint64 { return a.gen }

// Map installs a translation from page vpn to frame pfn.
func (a *AddrSpace) Map(vpn, pfn uint64, perm Perm) {
	a.entries[vpn] = PTE{Frame: pfn, Perm: perm, Valid: true}
	a.gen++
}

// MapRange installs n consecutive translations starting at (vpn, pfn).
func (a *AddrSpace) MapRange(vpn, pfn uint64, n int, perm Perm) {
	for i := 0; i < n; i++ {
		a.entries[vpn+uint64(i)] = PTE{Frame: pfn + uint64(i), Perm: perm, Valid: true}
	}
	a.gen++
}

// Unmap removes the translation entirely; later accesses fault as unmapped.
func (a *AddrSpace) Unmap(vpn uint64) {
	delete(a.entries, vpn)
	a.gen++
}

// Invalidate keeps the entry but marks it invalid, so later accesses raise
// FaultInvalidated — the distinguishable trap the proceed-trap protocol
// relies on (§IV-D step ①).
func (a *AddrSpace) Invalidate(vpn uint64) {
	if e, ok := a.entries[vpn]; ok {
		e.Valid = false
		a.entries[vpn] = e
		a.gen++
	}
}

// InvalidateWhere invalidates every entry whose frame satisfies pred and
// returns how many entries were invalidated.
func (a *AddrSpace) InvalidateWhere(pred func(vpn, pfn uint64) bool) int {
	n := 0
	for vpn, e := range a.entries {
		if e.Valid && pred(vpn, e.Frame) {
			e.Valid = false
			a.entries[vpn] = e
			n++
		}
	}
	if n > 0 {
		a.gen++
	}
	return n
}

// Lookup returns the raw entry for vpn.
func (a *AddrSpace) Lookup(vpn uint64) (PTE, bool) {
	e, ok := a.entries[vpn]
	return e, ok
}

// Translate resolves one page access. want is the permission required.
func (a *AddrSpace) Translate(vpn uint64, want Perm) (uint64, *Fault) {
	e, ok := a.entries[vpn]
	if !ok {
		return 0, &Fault{Kind: FaultUnmapped, Space: a.Name, Addr: vpn << PageShift}
	}
	if !e.Valid {
		return 0, &Fault{Kind: FaultInvalidated, Space: a.Name, Addr: vpn << PageShift}
	}
	if e.Perm&want != want {
		return 0, &Fault{Kind: FaultPerm, Space: a.Name, Addr: vpn << PageShift}
	}
	return e.Frame, nil
}

// Clear drops all entries.
func (a *AddrSpace) Clear() {
	a.entries = make(map[uint64]PTE)
	a.gen++
}

// SMMU is the system MMU translating device DMA addresses (IOVA) to physical
// addresses, one table per stream (device).
type SMMU struct {
	streams  map[string]*AddrSpace
	gen      uint64
	onDenial func(*Fault) // Machine.ObserveDenials
}

// NewSMMU creates an empty SMMU.
func NewSMMU() *SMMU { return &SMMU{streams: make(map[string]*AddrSpace)} }

// Stream returns (creating if needed) the translation table for a device.
func (s *SMMU) Stream(dev string) *AddrSpace {
	t, ok := s.streams[dev]
	if !ok {
		t = NewAddrSpace("smmu:" + dev)
		s.streams[dev] = t
	}
	return t
}

// Translate resolves a device DMA access.
func (s *SMMU) Translate(dev string, iova uint64, want Perm) (PA, *Fault) {
	t, ok := s.streams[dev]
	if !ok {
		f := &Fault{Kind: FaultSMMU, Space: "smmu:" + dev, Addr: iova}
		reportDenial(f, s.onDenial)
		return 0, f
	}
	pfn, f := t.Translate(iova>>PageShift, want)
	if f != nil {
		f.Kind = FaultSMMU
		reportDenial(f, s.onDenial)
		return 0, f
	}
	return PA(pfn<<PageShift | iova&(PageSize-1)), nil
}
