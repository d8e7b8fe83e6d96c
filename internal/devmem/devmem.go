// Package devmem is the device memory of CRONUS's accelerators, written once
// for the GPU and the NPU (§V-B): per-context address spaces whose VAs carry
// the context's id, stale once destroyed, reset or shut down, scrubbed back
// into the recycler of the device's element type (A3), and copies that resolve
// their ranges again after the DMA they charge.
package devmem

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cronus/internal/recycle"
	"cronus/internal/sim"
)

// Errors are a device kind's own sentinels, and Kind prefixes the messages
// built around them. Stale is any use of a context its device no longer
// holds; InvalidPointer a range not inside one live allocation (a forged or
// freed pointer, a length past its end, a negative one); OutOfMemory an
// allocation larger than the memory left.
type Errors struct {
	Kind                               string
	Stale, InvalidPointer, OutOfMemory error
}

// Device is the memory of one accelerator, backed by elements of type T.
type Device[T recycle.Elem] struct {
	errs     Errors
	rec      *recycle.Recycler[T]
	face     func([]T) []byte         // a backing's memory as bytes
	dma      func(p *sim.Proc, n int) // charges a host transfer of n bytes
	elem     uint64                   // bytes per element
	size     uint64
	used     uint64
	contexts map[int]*Space[T]
	nextID   int
}

// New returns size bytes of device memory whose backings rec keeps and face
// shows as bytes; HtoD and DtoH charge their transfer with dma.
func New[T recycle.Elem](errs Errors, size uint64, rec *recycle.Recycler[T], face func([]T) []byte, dma func(p *sim.Proc, n int)) Device[T] {
	elem := uint64(4)
	if _, ok := any(T(0)).(byte); ok {
		elem = 1
	}
	return Device[T]{errs: errs, rec: rec, face: face, dma: dma, elem: elem, size: size, contexts: make(map[int]*Space[T])}
}

// MemBytes returns the device's memory size.
func (d *Device[T]) MemBytes() uint64 { return d.size }

// MemUsed returns the bytes live contexts hold.
func (d *Device[T]) MemUsed() uint64 { return d.used }

// Open makes s, embedded in a device's context type, a new context of d.
func (d *Device[T]) Open(s *Space[T]) {
	d.nextID++
	*s = Space[T]{id: d.nextID, dev: d}
	d.contexts[s.id] = s
}

// Close scrubs s's memory into the recycler and makes s stale. It reports
// whether d still held s: a second Close, or one after a Reset, does nothing.
func (d *Device[T]) Close(s *Space[T]) bool {
	if d.contexts[s.id] != s {
		return false
	}
	d.used -= s.release()
	delete(d.contexts, s.id)
	return true
}

// Reset scrubs every context's memory into the recycler and makes every
// context stale: a device reset, and the end of the kernel it lives on.
func (d *Device[T]) Reset() {
	for _, s := range d.contexts {
		s.release()
	}
	clear(d.contexts)
	d.used = 0
}

// Span is one allocation: Size bytes at VA, backed by Words from the
// recycler. No view reaches past len(Words): the recycler relies on the rest
// of the capacity staying zero.
type Span[T recycle.Elem] struct {
	VA, Size uint64
	Words    []T
}

// Space is one context's address space.
type Space[T recycle.Elem] struct {
	id    int
	dev   *Device[T]
	stale bool      // released: destroyed, reset or shut down
	spans []Span[T] // sorted by VA: next only grows, so append keeps the order
	next  uint64
}

// ID returns the context's id, the top bits of its VAs.
func (s *Space[T]) ID() int { return s.id }

// release scrubs the spans into the recycler, forgets them and makes s stale,
// returning the bytes they held.
func (s *Space[T]) release() (n uint64) {
	for _, sp := range s.spans {
		s.dev.rec.Put(sp.Words)
		n += sp.Size
	}
	s.spans = nil
	s.stale = true
	return n
}

// Check returns the device's stale-context error once s is released.
func (s *Space[T]) Check() error {
	if s.stale {
		return s.dev.errs.Stale
	}
	return nil
}

// MemAlloc allocates n bytes of device memory and returns its VA.
func (s *Space[T]) MemAlloc(n uint64) (uint64, error) {
	if err := s.Check(); err != nil {
		return 0, err
	}
	d := s.dev
	if n == 0 {
		return 0, fmt.Errorf("%s: zero-byte allocation", d.errs.Kind)
	}
	if n > d.size-d.used {
		return 0, fmt.Errorf("%w (%d used of %d)", d.errs.OutOfMemory, d.used, d.size)
	}
	// The context id in the top bits: no pointer resolves in another context.
	va := uint64(s.id)<<40 + s.next + 0x1000
	s.next += (n + 0xfff) &^ 0xfff
	s.spans = append(s.spans, Span[T]{VA: va, Size: n, Words: d.rec.Get(int((n + d.elem - 1) / d.elem))})
	d.used += n
	return va, nil
}

// MemFree scrubs the allocation at va into the recycler.
func (s *Space[T]) MemFree(va uint64) error {
	if err := s.Check(); err != nil {
		return err
	}
	i := s.index(va)
	if i == len(s.spans) || s.spans[i].VA != va {
		return fmt.Errorf("%w: MemFree(%#x): no such allocation", s.dev.errs.InvalidPointer, va)
	}
	s.dev.rec.Put(s.spans[i].Words)
	s.dev.used -= s.spans[i].Size
	s.spans = slices.Delete(s.spans, i, i+1)
	return nil
}

// index is the position of the first span ending past ptr.
func (s *Space[T]) index(ptr uint64) int {
	return sort.Search(len(s.spans), func(i int) bool { return s.spans[i].VA+s.spans[i].Size > ptr })
}

// Locate finds the span holding ptr, nil if none, and ptr's offset into it;
// the span is valid until s next allocates or frees.
func (s *Space[T]) Locate(ptr uint64) (*Span[T], uint64, error) {
	if err := s.Check(); err != nil {
		return nil, 0, err
	}
	if i := s.index(ptr); i < len(s.spans) && ptr >= s.spans[i].VA {
		return &s.spans[i], ptr - s.spans[i].VA, nil
	}
	return nil, 0, nil
}

// Resolve returns the device memory [ptr, ptr+n), which must lie inside one
// span: the memory itself, cut to n bytes of length and capacity.
func (s *Space[T]) Resolve(ptr uint64, n int) ([]byte, error) {
	sp, off, err := s.Locate(ptr)
	if err != nil {
		return nil, err
	}
	if sp == nil || n < 0 || uint64(n) > sp.Size-off {
		return nil, fmt.Errorf("%w %#x (+%d) in context %d", s.dev.errs.InvalidPointer, ptr, n, s.id)
	}
	return s.dev.face(sp.Words)[off : off+uint64(n) : off+uint64(n)], nil
}

// CheckRange returns the error a transfer over [ptr, ptr+n) would: a driver
// asks before it sizes a host buffer from a length the caller supplied.
func (s *Space[T]) CheckRange(ptr, n uint64) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("%s: transfer of %d bytes exceeds the device", s.dev.errs.Kind, n)
	}
	_, err := s.Resolve(ptr, int(n))
	return err
}

// HtoD copies host bytes to dst, charging the device's DMA.
func (s *Space[T]) HtoD(p *sim.Proc, dst uint64, src []byte) error {
	return Transfer(s, dst, nil, 0, src, len(src), func() { s.dev.dma(p, len(src)) })
}

// DtoH copies the memory at src to host bytes, charging the device's DMA.
func (s *Space[T]) DtoH(p *sim.Proc, dst []byte, src uint64) error {
	return Transfer(nil, 0, s, src, dst, len(dst), func() { s.dev.dma(p, len(dst)) })
}

// Transfer is the one copy rule: n bytes move from src at srcPtr to dst at
// dstPtr, a nil side being the host memory host. It resolves the source,
// then the destination, charges the transfer and resolves both again before
// it moves a byte: while charge slept, a free, a destroy or a reset may have
// handed the memory back to the recycler, and the copy must then neither read
// nor write it.
func Transfer[T recycle.Elem](dst *Space[T], dstPtr uint64, src *Space[T], srcPtr uint64, host []byte, n int, charge func()) error {
	for charged := false; ; charged = true {
		db, sb := host, host
		var err error
		if src != nil {
			sb, err = src.Resolve(srcPtr, n)
		}
		if dst != nil && err == nil {
			db, err = dst.Resolve(dstPtr, n)
		}
		if err != nil {
			return err
		}
		if charged {
			copy(db, sb)
			return nil
		}
		charge()
	}
}
