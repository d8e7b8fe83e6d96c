package devmem

import (
	"errors"
	"testing"

	"cronus/internal/recycle"
	"cronus/internal/sim"
)

// Fuzz steps: each is one opcode byte and its operands.
const (
	stepAlloc   = iota // context, size
	stepFree           // context, pointer
	stepDestroy        // context: it goes stale
	stepReset          // every context goes stale
	stepOpen           // context: a stale one is replaced by a new one
	stepResolve        // context, pointer, length: Resolve, then CheckRange
	stepHtoD           // context, pointer, length: a copy in and back out
	nSteps
)

// fuzzSlots is how many contexts a schedule drives at once; fuzzBytes is the
// device's memory, small so that allocations run out.
const (
	fuzzSlots = 3
	fuzzBytes = 1 << 20
)

var fuzzErrs = Errors{Kind: "fuzz",
	Stale:          errors.New("fuzz: context destroyed or reset"),
	InvalidPointer: errors.New("fuzz: invalid device pointer"),
	OutOfMemory:    errors.New("fuzz: out of device memory"),
}

// hostile are operand values a schedule picks by index: the edges of a page,
// of the device and of uint64, where a sum would wrap.
var hostile = [...]uint64{0, 1, 0xfff, 0x1000, 0x1001, fuzzBytes, fuzzBytes + 1,
	1 << 31, 1 << 32, 1 << 63, 1<<64 - 1, 1<<64 - 10, 1<<64 - 101}

// schedule reads a fuzz input's bytes; past the end it reads zeros.
type schedule []byte

func (s *schedule) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// value is a hostile edge (top bit of the first byte set) or a small number
// from two bytes.
func (s *schedule) value() uint64 {
	b := s.byte()
	if b&0x80 != 0 {
		return hostile[int(b&0x7f)%len(hostile)]
	}
	return uint64(b)<<8 | uint64(s.byte())
}

// model is the oracle: the live allocations of each slot's context, and the
// bytes they hold.
type model struct {
	live [fuzzSlots]map[uint64]uint64 // va -> size; nil once the context is stale
	used uint64
}

// pointer is an operand address: the VA of one of sp's spans plus an offset,
// or a value from the schedule.
func pointer(s *schedule, sp *Space[byte]) uint64 {
	if b := int(s.byte()); b&1 == 1 && len(sp.spans) > 0 {
		return sp.spans[(b>>1)%len(sp.spans)].VA + s.value()
	}
	return s.value()
}

// resolves is the oracle's Resolve: the error the step must return.
func (m *model) resolves(slot int, ptr uint64, n int) error {
	if m.live[slot] == nil {
		return fuzzErrs.Stale
	}
	for va, size := range m.live[slot] {
		if ptr >= va && ptr-va < size {
			if n >= 0 && uint64(n) <= size-(ptr-va) {
				return nil
			}
			break
		}
	}
	return fuzzErrs.InvalidPointer
}

// FuzzDeviceMemory decodes bytes into alloc, free, destroy, reset, resolve and
// copy steps with hostile addresses and lengths over a few contexts of one
// device, and holds each step to a map model of the live (VA, size) pairs and
// MemUsed: the model's answer or its typed error, never a panic. After every
// step the device's books and each context's VA-sorted, disjoint span list
// match the model, and a stale context lists no span.
func FuzzDeviceMemory(f *testing.F) {
	// The NPU's once linear resolve wrapped on this: a 4 KiB allocation, then
	// a copy of 100 bytes to 2^64-10.
	f.Add([]byte{stepAlloc, 0, 0x10, 0x00, stepHtoD, 0, 0x00, 0x8b, 100})
	// An allocation of 2^64-101 bytes, which wraps used+n past 2^64.
	f.Add([]byte{stepAlloc, 0, 0x10, 0x00, stepAlloc, 0, 0x8c, stepAlloc, 0, 0x00, 0x10})
	f.Add([]byte{stepAlloc, 1, 0x85, stepAlloc, 1, 0x84, stepFree, 1, 1, 0, 0, stepResolve, 1, 1, 0x81, 0x8a})
	f.Add([]byte{stepAlloc, 2, 0x12, 0x34, stepDestroy, 2, stepAlloc, 2, 0x80, stepOpen, 2, stepAlloc, 2, 0x85,
		stepReset, stepResolve, 0, 0x8b, 0x81, stepFree, 1, 0, 0x81, stepHtoD, 2, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := New(fuzzErrs, fuzzBytes, &recycle.Bytes, func(b []byte) []byte { return b }, func(*sim.Proc, int) {})
		var spaces [fuzzSlots]*Space[byte]
		var m model
		open := func(slot int) {
			spaces[slot] = new(Space[byte])
			d.Open(spaces[slot])
			m.live[slot] = map[uint64]uint64{}
		}
		for slot := range spaces {
			open(slot)
		}
		defer d.Reset()
		s := schedule(data)
		for step := 0; len(s) > 0 && step < 256; step++ {
			op := s.byte() % nSteps
			slot := 0
			if op != stepReset {
				slot = int(s.byte()) % fuzzSlots
			}
			sp := spaces[slot]
			var err, want error
			switch op {
			case stepAlloc:
				n := s.value()
				var va uint64
				va, err = sp.MemAlloc(n)
				switch {
				case m.live[slot] == nil:
					want = fuzzErrs.Stale
				case n == 0:
					if err == nil {
						t.Fatalf("step %d: a zero-byte allocation succeeded", step)
					}
					want = err
				case n > fuzzBytes-m.used:
					want = fuzzErrs.OutOfMemory
				default:
					if err == nil {
						for _, l := range m.live {
							if _, dup := l[va]; dup {
								t.Fatalf("step %d: MemAlloc handed out %#x twice", step, va)
							}
						}
						m.live[slot][va] = n
						m.used += n
					}
				}
			case stepFree:
				va := pointer(&s, sp)
				err = sp.MemFree(va)
				size, ok := m.live[slot][va]
				switch {
				case m.live[slot] == nil:
					want = fuzzErrs.Stale
				case !ok:
					if err == nil {
						t.Fatalf("step %d: MemFree(%#x) of no allocation succeeded", step, va)
					}
					want = err
				default:
					delete(m.live[slot], va)
					m.used -= size
				}
			case stepDestroy:
				for _, size := range m.live[slot] {
					m.used -= size
				}
				m.live[slot] = nil
				d.Close(sp)
			case stepReset:
				d.Reset()
				m.used = 0
				m.live = [fuzzSlots]map[uint64]uint64{}
			case stepOpen:
				if m.live[slot] == nil {
					open(slot)
				}
			case stepResolve:
				ptr, n := pointer(&s, sp), s.value()
				want = m.resolves(slot, ptr, int(int64(n)))
				var b []byte
				b, err = sp.Resolve(ptr, int(int64(n)))
				if err == nil && (len(b) != int(n) || cap(b) != int(n)) {
					t.Fatalf("step %d: Resolve(%#x, %d) is %d bytes, capacity %d", step, ptr, n, len(b), cap(b))
				}
				if cerr := sp.CheckRange(ptr, n); n <= 1<<31-1 && !errors.Is(cerr, want) && (cerr != nil || want != nil) {
					t.Fatalf("step %d: CheckRange(%#x, %d): %v, Resolve: %v", step, ptr, n, cerr, err)
				}
			case stepHtoD:
				ptr, n := pointer(&s, sp), int(s.byte())
				want = m.resolves(slot, ptr, n)
				src := make([]byte, n)
				for i := range src {
					src[i] = byte(step + i + 1)
				}
				if err = sp.HtoD(nil, ptr, src); err == nil {
					back := make([]byte, n)
					if err = sp.DtoH(nil, back, ptr); err != nil || string(back) != string(src) {
						t.Fatalf("step %d: DtoH after HtoD at %#x: %v, %x want %x", step, ptr, err, back, src)
					}
				}
			}
			if !errors.Is(err, want) && (err != nil || want != nil) {
				t.Fatalf("step %d (op %d, context %d): %v, want %v", step, op, slot, err, want)
			}
			if got := d.MemUsed(); got != m.used {
				t.Fatalf("step %d: MemUsed %d, the model holds %d", step, got, m.used)
			}
			for slot, sp := range spaces {
				if sp.stale != (m.live[slot] == nil) || len(sp.spans) != len(m.live[slot]) {
					t.Fatalf("step %d: context %d (stale %v) lists %d spans, the model %d", step, sp.id, sp.stale, len(sp.spans), len(m.live[slot]))
				}
				for i, span := range sp.spans {
					if m.live[slot][span.VA] != span.Size || i > 0 && sp.spans[i-1].VA+sp.spans[i-1].Size > span.VA {
						t.Fatalf("step %d: context %d span %d (%#x +%d) is out of order or not the model's", step, sp.id, i, span.VA, span.Size)
					}
				}
			}
		}
	})
}
