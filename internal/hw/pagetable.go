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
//
// Entries live in chunks of chunkPages consecutive page numbers, found by
// chunk index: tables are filled and walked in runs of consecutive pages (a
// partition's IPAs are handed out in order), so a run costs one chunk
// lookup, not one map operation per page.
type AddrSpace struct {
	Name   string
	chunks map[uint64]*ptChunk
	// last is the chunk the previous operation used, at index lastKey.
	last    *ptChunk
	lastKey uint64
	gen     uint64 // bumped on every change, for TLB-style caching upstream
}

// chunkShift sets the pages a chunk covers: 512 slots of 16 bytes, 8 KiB.
const (
	chunkShift = 9
	chunkPages = 1 << chunkShift
)

// ptSlot is one page's entry; set tells a mapped page from a hole.
type ptSlot struct {
	frame uint64
	perm  Perm
	valid bool
	set   bool
}

type ptChunk [chunkPages]ptSlot

// NewAddrSpace creates an empty address space.
func NewAddrSpace(name string) *AddrSpace {
	return &AddrSpace{Name: name, chunks: make(map[uint64]*ptChunk)}
}

// slot returns vpn's slot, creating its chunk when create is set; nil when
// the chunk does not exist and create is not set.
func (a *AddrSpace) slot(vpn uint64, create bool) *ptSlot {
	key := vpn >> chunkShift
	c := a.last
	if c == nil || a.lastKey != key {
		c = a.chunks[key]
		if c == nil {
			if !create {
				return nil
			}
			c = new(ptChunk)
			a.chunks[key] = c
		}
		a.last, a.lastKey = c, key
	}
	return &c[vpn&(chunkPages-1)]
}

// Gen returns the mutation generation (any change bumps it).
func (a *AddrSpace) Gen() uint64 { return a.gen }

// Map installs a translation from page vpn to frame pfn.
func (a *AddrSpace) Map(vpn, pfn uint64, perm Perm) {
	*a.slot(vpn, true) = ptSlot{frame: pfn, perm: perm, valid: true, set: true}
	a.gen++
}

// MapRange installs n consecutive translations starting at (vpn, pfn).
func (a *AddrSpace) MapRange(vpn, pfn uint64, n int, perm Perm) {
	for i := 0; i < n; i++ {
		*a.slot(vpn+uint64(i), true) = ptSlot{frame: pfn + uint64(i), perm: perm, valid: true, set: true}
	}
	a.gen++
}

// Unmap removes the translation entirely; later accesses fault as unmapped.
func (a *AddrSpace) Unmap(vpn uint64) {
	if e := a.slot(vpn, false); e != nil {
		*e = ptSlot{}
	}
	a.gen++
}

// Invalidate keeps the entry but marks it invalid, so later accesses raise
// FaultInvalidated — the distinguishable trap the proceed-trap protocol
// relies on (§IV-D step ①).
func (a *AddrSpace) Invalidate(vpn uint64) {
	if e := a.slot(vpn, false); e != nil && e.set {
		e.valid = false
		a.gen++
	}
}

// InvalidateWhere invalidates every entry whose frame satisfies pred and
// returns how many entries were invalidated.
func (a *AddrSpace) InvalidateWhere(pred func(vpn, pfn uint64) bool) int {
	n := 0
	for key, c := range a.chunks {
		for i := range c {
			e := &c[i]
			if e.set && e.valid && pred(key<<chunkShift|uint64(i), e.frame) {
				e.valid = false
				n++
			}
		}
	}
	if n > 0 {
		a.gen++
	}
	return n
}

// Lookup returns the raw entry for vpn.
func (a *AddrSpace) Lookup(vpn uint64) (PTE, bool) {
	e := a.slot(vpn, false)
	if e == nil || !e.set {
		return PTE{}, false
	}
	return PTE{Frame: e.frame, Perm: e.perm, Valid: e.valid}, true
}

// Translate resolves one page access. want is the permission required.
func (a *AddrSpace) Translate(vpn uint64, want Perm) (uint64, *Fault) {
	e := a.slot(vpn, false)
	if e == nil || !e.set {
		return 0, &Fault{Kind: FaultUnmapped, Space: a.Name, Addr: vpn << PageShift}
	}
	if !e.valid {
		return 0, &Fault{Kind: FaultInvalidated, Space: a.Name, Addr: vpn << PageShift}
	}
	if e.perm&want != want {
		return 0, &Fault{Kind: FaultPerm, Space: a.Name, Addr: vpn << PageShift}
	}
	return e.frame, nil
}

// Clear drops all entries.
func (a *AddrSpace) Clear() {
	a.chunks = make(map[uint64]*ptChunk)
	a.last = nil
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
