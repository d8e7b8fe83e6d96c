package hw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"cronus/internal/recycle"
)

// PhysMem is the machine's physical memory: sparse 4 KiB frames guarded by
// the TZASC. Every read and write declares the world it originates from.
//
// One goroutine per kernel: a PhysMem belongs to one machine, a machine to
// one sim.Kernel, and a kernel runs exactly one of its processes at a time
// (every hand-off between them is a happens-before edge), so neither the
// frame table nor the watch registry is locked. Two live platforms in one
// process share nothing at this level; code that reaches a PhysMem from a
// goroutine its kernel did not schedule is a bug the race detector reports.
// Frames come from recycle.Bytes, whose one mutex is the only state a
// PhysMem shares with another machine.
type PhysMem struct {
	size uint64
	// frames is a two-level table indexed by PFN: the top level is sized
	// from size at construction (one pointer per 2 MiB of address space),
	// leaves are allocated and frames taken from the recycler on first
	// touch. Release sets it to nil, and size to 0.
	frames  []*frameLeaf
	tzasc   *TZASC
	regions map[string]*MemRegion
	watches []memWatch
	watchID int
}

const (
	leafShift  = 9 // 512 frames, 2 MiB of address space, per leaf
	leafFrames = 1 << leafShift
)

type (
	frame     [PageSize]byte
	frameLeaf [leafFrames]*frame
)

// MemRegion is a named physical range with a simple page-frame allocator.
type MemRegion struct {
	Name string
	Base PA
	Size uint64
	next uint64 // next free page index within the region
	free []uint64
}

// memWatch is one registered write observer (a simulated doorbell): fn runs
// after any guarded write that overlaps [lo, hi).
type memWatch struct {
	id     int
	lo, hi PA
	fn     func()
}

// ErrReleased reports an access to physical memory after Release gave its
// frames back.
var ErrReleased = errors.New("hw: physical memory released")

// NewPhysMem creates memory of the given size guarded by tzasc.
func NewPhysMem(size uint64, tzasc *TZASC) *PhysMem {
	leaves := size / (leafFrames * PageSize)
	if size%(leafFrames*PageSize) != 0 {
		leaves++
	}
	return &PhysMem{
		size:    size,
		frames:  make([]*frameLeaf, leaves),
		tzasc:   tzasc,
		regions: make(map[string]*MemRegion),
	}
}

// AddRegion registers a named allocatable region.
func (m *PhysMem) AddRegion(name string, base PA, size uint64) {
	m.regions[name] = &MemRegion{Name: name, Base: base, Size: size}
}

// Region returns a registered region (nil if absent).
func (m *PhysMem) Region(name string) *MemRegion { return m.regions[name] }

// AllocPages grabs n contiguous-frame-numbered pages from the named region
// and returns the base physical address. The pages are zeroed.
func (m *PhysMem) AllocPages(region string, n int) (PA, error) {
	r := m.regions[region]
	if r == nil {
		return 0, fmt.Errorf("hw: unknown memory region %q", region)
	}
	if n <= 0 {
		return 0, fmt.Errorf("hw: AllocPages(%d): count must be positive", n)
	}
	// Reuse a freed frame for single-page requests; contiguous requests
	// always bump-allocate.
	if n == 1 && len(r.free) > 0 {
		idx := r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		pa := r.Base + PA(idx*PageSize)
		m.zeroPage(pa.PFN())
		return pa, nil
	}
	if (r.next+uint64(n))*PageSize > r.Size {
		return 0, fmt.Errorf("hw: region %q out of memory (%d pages requested)", region, n)
	}
	pa := r.Base + PA(r.next*PageSize)
	r.next += uint64(n)
	for i := 0; i < n; i++ {
		m.zeroPage(pa.PFN() + uint64(i))
	}
	return pa, nil
}

// FreePage returns a single page to its region's free list and scrubs it.
// The page must be page-aligned and lie inside the named region; freeing a
// foreign address would scrub a frame the region allocator never owned and
// corrupt its free list.
func (m *PhysMem) FreePage(region string, pa PA) error {
	r := m.regions[region]
	if r == nil {
		return fmt.Errorf("hw: FreePage: unknown memory region %q", region)
	}
	if pa.Offset() != 0 {
		return fmt.Errorf("hw: FreePage(%q, %#x): address not page-aligned", region, uint64(pa))
	}
	// Compared without forming pa+PageSize, which wraps for the last page
	// of the address space.
	if pa < r.Base || r.Size < PageSize || uint64(pa)-uint64(r.Base) > r.Size-PageSize {
		return fmt.Errorf("hw: FreePage(%q, %#x): address outside region [%#x, %#x)",
			region, uint64(pa), uint64(r.Base), uint64(r.Base)+r.Size)
	}
	m.zeroPage(pa.PFN())
	r.free = append(r.free, (uint64(pa)-uint64(r.Base))/PageSize)
	return nil
}

// zeroPage clears a frame if it was ever touched; an untouched frame (or a
// frame number past the end of memory) already reads as zeroes or not at all.
func (m *PhysMem) zeroPage(pfn uint64) {
	if top := pfn >> leafShift; top < uint64(len(m.frames)) {
		if leaf := m.frames[top]; leaf != nil {
			if f := leaf[pfn&(leafFrames-1)]; f != nil {
				*f = frame{}
			}
		}
	}
}

// page returns the backing frame, allocating the leaf and taking a zeroed
// frame from the recycler on first touch. The caller has bounded pfn by
// Size().
func (m *PhysMem) page(pfn uint64) *frame {
	leaf := m.frames[pfn>>leafShift]
	if leaf == nil {
		leaf = new(frameLeaf)
		m.frames[pfn>>leafShift] = leaf
	}
	f := leaf[pfn&(leafFrames-1)]
	if f == nil {
		f = (*frame)(recycle.Bytes.Get(PageSize))
		leaf[pfn&(leafFrames-1)] = f
	}
	return f
}

// Release scrubs every touched frame into the recycler and retires the
// memory: afterwards Read and Write return ErrReleased and Load64 finds no
// word. The platform registers it to run when its kernel shuts down.
func (m *PhysMem) Release() {
	for _, leaf := range m.frames {
		if leaf == nil {
			continue
		}
		for _, f := range leaf {
			if f != nil {
				recycle.Bytes.Put(f[:])
			}
		}
	}
	m.frames, m.size = nil, 0
}

// Read copies len(buf) bytes starting at pa into buf, checking the TZASC for
// every touched page against the accessing world.
func (m *PhysMem) Read(w World, pa PA, buf []byte) error {
	return m.access(w, pa, buf, false)
}

// Write copies data into memory starting at pa, with TZASC checks.
func (m *PhysMem) Write(w World, pa PA, data []byte) error {
	return m.access(w, pa, data, true)
}

func (m *PhysMem) access(w World, pa PA, buf []byte, write bool) error {
	// [pa, pa+len) must lie inside memory; compared without forming the
	// sum, which wraps for a pa near 2^64. Released memory has size 0.
	if n := uint64(len(buf)); n > m.size || uint64(pa) > m.size-n {
		if m.frames == nil {
			return ErrReleased
		}
		return &Fault{Kind: FaultUnmapped, Space: "physmem", Addr: uint64(pa), World: w}
	}
	off := 0
	okUntil := pa // addresses below this have already passed the TZASC
	for off < len(buf) {
		cur := pa + PA(off)
		if cur >= okUntil {
			// One TZASC verdict covers the whole uniform span (the
			// configured region, or the gap up to the next region), so
			// a multi-page access inside one region checks once.
			end, err := m.tzasc.CheckSpan(w, cur)
			if err != nil {
				return err
			}
			okUntil = end
		}
		pg := m.page(cur.PFN())
		po := int(cur.Offset())
		n := PageSize - po
		if n > len(buf)-off {
			n = len(buf) - off
		}
		if write {
			copy(pg[po:po+n], buf[off:off+n])
		} else {
			copy(buf[off:off+n], pg[po:po+n])
		}
		off += n
	}
	if write && len(m.watches) != 0 {
		m.fireWatches(pa, pa+PA(len(buf)))
	}
	return nil
}

// WatchWrite registers fn to run after every guarded write that overlaps
// [pa, pa+n) — a simulated doorbell on a physical range. Watches observe only
// Write traffic: allocator zeroing is privileged maintenance,
// not producer stores. The returned id (never zero) removes the watch through
// Unwatch; watches fire in registration order so wakeup order is
// deterministic.
func (m *PhysMem) WatchWrite(pa PA, n uint64, fn func()) (id int) {
	m.watchID++
	m.watches = append(m.watches, memWatch{id: m.watchID, lo: pa, hi: pa + PA(n), fn: fn})
	return m.watchID
}

// Unwatch removes the watch WatchWrite returned id for; an id that is not
// registered (already removed, or zero) is ignored.
func (m *PhysMem) Unwatch(id int) {
	if i := m.watchIndex(id); i >= 0 {
		m.watches = append(m.watches[:i], m.watches[i+1:]...)
	}
}

// WatchCount returns the number of registered watches (leak checks).
func (m *PhysMem) WatchCount() int { return len(m.watches) }

// watchIndex locates a watch by id; -1 when it is gone.
func (m *PhysMem) watchIndex(id int) int {
	for i := range m.watches {
		if m.watches[i].id == id {
			return i
		}
	}
	return -1
}

// fireWatches runs the watches overlapping [lo, hi) in registration order, so
// wakeup order stays deterministic. Callbacks may remove watches (their own
// included) and register new ones, so the loop walks a snapshot: a watch an
// earlier callback of the same write removed is skipped, one registered
// during the fire waits for the next write. The snapshot lives on the stack
// up to four overlapping watches — a doorbell word has one or two waiters —
// and spills to the heap beyond that.
func (m *PhysMem) fireWatches(lo, hi PA) {
	var buf [4]memWatch
	snap := buf[:0]
	for i := range m.watches {
		if w := &m.watches[i]; w.lo < hi && lo < w.hi {
			snap = append(snap, *w)
		}
	}
	for _, w := range snap {
		if m.watchIndex(w.id) >= 0 {
			w.fn()
		}
	}
}

// Load64 returns the little-endian 8-byte word at pa as memory holds it, with
// no TZASC verdict: a peek for a secure-world reader, which the TZASC never
// refuses. It allocates nothing, fires no watch and touches nothing; ok is
// false when the word does not lie whole inside one page of memory, and
// always once the memory is released.
func (m *PhysMem) Load64(pa PA) (v uint64, ok bool) {
	po := int(pa.Offset())
	if po > PageSize-8 || m.size < 8 || uint64(pa) > m.size-8 {
		return 0, false
	}
	pfn := pa.PFN()
	if leaf := m.frames[pfn>>leafShift]; leaf != nil {
		if f := leaf[pfn&(leafFrames-1)]; f != nil {
			v = binary.LittleEndian.Uint64(f[po:])
		}
	}
	return v, true
}

// TZASC filters physical memory accesses by world, region by region
// (the TrustZone Address Space Controller).
type TZASC struct {
	regions  map[int]tzRegion
	locked   bool
	onDenial func(*Fault) // Machine.ObserveDenials

	// Region slots sorted by id: the deterministic pre-lock scan order
	// (the map's iteration order must never decide a verdict).
	order []tzSlot
	dirty bool

	// index is the immutable lookup structure built when the secure
	// monitor locks the configuration at boot: region slots sorted by
	// base, binary-searched per access. With overlapping regions the
	// sorted index cannot answer span queries, so checks fall back to
	// the slot-ordered scan (overlap=true).
	index   []tzSlot
	overlap bool
}

type tzRegion struct {
	base   PA
	size   uint64
	secure bool
}

type tzSlot struct {
	id int
	tzRegion
}

// NewTZASC creates an empty controller; unconfigured addresses default to
// normal-world accessible.
func NewTZASC() *TZASC { return &TZASC{regions: make(map[int]tzRegion)} }

// SetRegion configures region slot id. Fails if the controller was locked
// (the secure monitor locks it at boot to resist reconfiguration attacks).
func (t *TZASC) SetRegion(id int, base PA, size uint64, secure bool) error {
	if t.locked {
		return fmt.Errorf("hw: TZASC locked")
	}
	t.regions[id] = tzRegion{base: base, size: size, secure: secure}
	t.dirty = true
	return nil
}

// Lock freezes the configuration (done by the secure monitor during boot)
// and builds the sorted region index consulted on every subsequent check.
func (t *TZASC) Lock() {
	t.locked = true
	t.rebuildOrder()
	t.index = make([]tzSlot, len(t.order))
	copy(t.index, t.order)
	sort.SliceStable(t.index, func(i, j int) bool { return t.index[i].base < t.index[j].base })
	t.overlap = false
	for i := 1; i < len(t.index); i++ {
		prev := t.index[i-1]
		if uint64(prev.base)+prev.size > uint64(t.index[i].base) {
			t.overlap = true
			break
		}
	}
}

// Locked reports whether the configuration is frozen.
func (t *TZASC) Locked() bool { return t.locked }

// rebuildOrder refreshes the slot-id-ordered scan list.
func (t *TZASC) rebuildOrder() {
	t.order = t.order[:0]
	ids := make([]int, 0, len(t.regions))
	for id := range t.regions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t.order = append(t.order, tzSlot{id: id, tzRegion: t.regions[id]})
	}
	t.dirty = false
}

// lookup resolves the verdict for pa and the end of the uniform-verdict span
// containing it: the end of the configured region, or — for unconfigured
// addresses — the base of the next region above pa (PA max if none). With an
// overlapping (or not yet locked) configuration the span degrades to the
// single page containing pa.
func (t *TZASC) lookup(pa PA) (secure bool, spanEnd PA) {
	pageEnd := PA((pa.PFN() + 1) << PageShift)
	if !t.locked || t.overlap {
		if t.dirty {
			t.rebuildOrder()
		}
		for _, r := range t.order {
			if pa >= r.base && uint64(pa) < uint64(r.base)+r.size {
				return r.secure, pageEnd
			}
		}
		return false, pageEnd
	}
	// Binary search: first region with base > pa; the candidate container
	// is the one before it (regions are non-overlapping here).
	i := sort.Search(len(t.index), func(i int) bool { return t.index[i].base > pa })
	if i > 0 {
		r := t.index[i-1]
		if uint64(pa) < uint64(r.base)+r.size {
			return r.secure, PA(uint64(r.base) + r.size)
		}
	}
	if i < len(t.index) {
		return false, t.index[i].base
	}
	return false, PA(^uint64(0))
}

// Check validates a single access at pa from world w.
func (t *TZASC) Check(w World, pa PA) error {
	secure, _ := t.lookup(pa)
	if secure && w != SecureWorld {
		f := &Fault{Kind: FaultTZASC, Space: "tzasc", Addr: uint64(pa), World: w}
		reportDenial(f, t.onDenial)
		return f
	}
	return nil
}

// CheckSpan validates an access at pa from world w and, when allowed, returns
// the first address past pa where the verdict may change — callers touching a
// contiguous range need one check per returned span, not one per page.
func (t *TZASC) CheckSpan(w World, pa PA) (spanEnd PA, err error) {
	secure, end := t.lookup(pa)
	if secure && w != SecureWorld {
		f := &Fault{Kind: FaultTZASC, Space: "tzasc", Addr: uint64(pa), World: w}
		reportDenial(f, t.onDenial)
		return 0, f
	}
	return end, nil
}

// TZPC filters peripheral (MMIO) access by world (the TrustZone Protection
// Controller). Devices not registered default to normal-world.
type TZPC struct {
	secure   map[string]bool
	locked   bool
	onDenial func(*Fault) // Machine.ObserveDenials
}

// NewTZPC creates an empty controller.
func NewTZPC() *TZPC { return &TZPC{secure: make(map[string]bool)} }

// SetSecure assigns a device to the secure world.
func (t *TZPC) SetSecure(dev string, secure bool) error {
	if t.locked {
		return fmt.Errorf("hw: TZPC locked")
	}
	t.secure[dev] = secure
	return nil
}

// Lock freezes the configuration.
func (t *TZPC) Lock() { t.locked = true }

// Check validates access to dev from world w.
func (t *TZPC) Check(w World, dev string) error {
	if t.secure[dev] && w != SecureWorld {
		f := &Fault{Kind: FaultTZPC, Space: "tzpc:" + dev, World: w}
		reportDenial(f, t.onDenial)
		return f
	}
	return nil
}
