package hw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestPhysMemBounds walks the edge of the address space: the bound is checked
// without forming pa+len, so an access whose end wraps past 2^64 faults as
// unmapped like any other out-of-range one, from either world, instead of
// passing the bound and the TZASC's gap rule.
func TestPhysMemBounds(t *testing.T) {
	m := testMachine()
	size := m.Mem.Size()
	for _, tc := range []struct {
		name string
		pa   uint64
		n    int
		ok   bool
	}{
		{"last byte of memory", size - 1, 1, true},
		{"last page of memory", size - PageSize, PageSize, true},
		{"one past the end", size, 1, false},
		{"straddling the end", size - 4, 8, false},
		{"zero-length at Size()", size, 0, true},
		{"zero-length past Size()", size + 1, 0, false},
		{"end wraps to 4", ^uint64(0) - 3, 8, false},
		{"end wraps to 0", ^uint64(0), 1, false},
		{"zero-length at 2^64-1", ^uint64(0), 0, false},
		{"longer than memory", 0, int(size) + 1, false},
	} {
		for _, w := range []World{NormalWorld, SecureWorld} {
			buf := make([]byte, tc.n)
			for op, err := range map[string]error{
				"read":  m.Mem.Read(w, PA(tc.pa), buf),
				"write": m.Mem.Write(w, PA(tc.pa), buf),
			} {
				var f *Fault
				switch {
				case tc.ok && w == SecureWorld && err != nil:
					t.Errorf("%s: %s from %v: %v", tc.name, op, w, err)
				case !tc.ok && (!errors.As(err, &f) || f.Kind != FaultUnmapped || f.Addr != tc.pa):
					t.Errorf("%s: %s from %v: got %v, want an unmapped fault at %#x", tc.name, op, w, err, tc.pa)
				}
			}
		}
	}

	// Privileged maintenance past the end touches nothing and does not panic.
	m.Mem.zeroPage(PA(size).PFN())
	m.Mem.zeroPage(PA(^uint64(0)).PFN())
	m.Mem.AddRegion("top", PA(^uint64(0)-4*PageSize+1), 4*PageSize)
	for _, pa := range []PA{PA(size), PA(^uint64(0) - PageSize + 1)} {
		if err := m.Mem.FreePage("secure", pa); err == nil {
			t.Errorf("FreePage(secure, %#x) accepted an address outside the region", uint64(pa))
		}
	}
	// A region the machine's memory does not back: its last page is a legal
	// free (in range of the region) that scrubs no frame.
	if err := m.Mem.FreePage("top", PA(^uint64(0)-PageSize+1)); err != nil {
		t.Errorf("FreePage of the region's own last page: %v", err)
	}
	if err := m.Mem.FreePage("top", PA(^uint64(0)-5*PageSize+1)); err == nil {
		t.Error("FreePage below the region's base accepted")
	}
}

// TestPhysMemMatchesMapOracle drives seeded random reads, writes, scrubs,
// frees and allocations — clustered on the frame table's leaf boundaries, in
// both regions, from both worlds — against a plain map of frames, and demands
// the same bytes and the same verdicts.
func TestPhysMemMatchesMapOracle(t *testing.T) {
	const (
		normal = 3 << 20 // leaf boundary (2 MiB) inside the normal region
		secure = 3 << 20 // and another (4 MiB) inside the secure one
	)
	m := NewMachine(Config{NormalMemBytes: normal, SecureMemBytes: secure})
	m.TZASC.Lock()
	oracle := make(map[uint64][]byte) // pfn → frame; absent reads as zeroes
	frameOf := func(pfn uint64) []byte {
		f := oracle[pfn]
		if f == nil {
			f = make([]byte, PageSize)
			oracle[pfn] = f
		}
		return f
	}
	rng := rand.New(rand.NewSource(24))
	hot := []uint64{0, leafFrames * PageSize, normal, 2 * leafFrames * PageSize, normal + secure}
	pick := func() uint64 {
		if rng.Intn(4) == 0 {
			return uint64(rng.Int63n(normal + secure))
		}
		at := int64(hot[rng.Intn(len(hot))]) + rng.Int63n(6*PageSize) - 3*PageSize
		if at < 0 {
			at = 0
		}
		return uint64(at)
	}
	for step := 0; step < 20000; step++ {
		pa := pick()
		what := fmt.Sprintf("step %d at %#x", step, pa)
		switch op := rng.Intn(10); {
		case op < 8: // read or write, up to three pages
			n := rng.Intn(3*PageSize + 1)
			if rng.Intn(3) == 0 {
				n = rng.Intn(16)
			}
			w := World(rng.Intn(2))
			// The model's verdict: out of range faults before any byte
			// moves; the normal world is stopped at the secure base,
			// after the bytes below it.
			limit := uint64(normal + secure)
			wantKind := FaultUnmapped
			allowed := n
			if pa+uint64(n) > limit {
				allowed = 0
			} else if w == NormalWorld && n > 0 && pa+uint64(n) > normal {
				wantKind = FaultTZASC
				allowed = 0
				if pa < normal {
					allowed = int(normal - pa)
				}
			} else {
				wantKind = -1
			}
			buf := make([]byte, n)
			write := op < 4
			if write {
				rng.Read(buf)
			}
			var err error
			if write {
				err = m.Mem.Write(w, PA(pa), buf)
			} else {
				err = m.Mem.Read(w, PA(pa), buf)
			}
			var f *Fault
			if wantKind < 0 && err != nil {
				t.Fatalf("%s: %d bytes from %v: %v", what, n, w, err)
			}
			if wantKind >= 0 && (!errors.As(err, &f) || f.Kind != wantKind) {
				t.Fatalf("%s: %d bytes from %v: got %v, want a %v fault", what, n, w, err, wantKind)
			}
			for i := 0; i < allowed; i++ {
				at := pa + uint64(i)
				if write {
					frameOf(at >> PageShift)[at&(PageSize-1)] = buf[i]
				} else if want := frameOf(at >> PageShift)[at&(PageSize-1)]; buf[i] != want {
					t.Fatalf("%s: byte %d reads %#x, the model holds %#x", what, i, buf[i], want)
				}
			}
		case op == 8: // scrub
			m.Mem.zeroPage(PA(pa).PFN())
			delete(oracle, pa>>PageShift)
		default: // free a frame of whichever region holds it, or take one
			region := "normal"
			if pa >= normal {
				region = "secure"
			}
			page := PA(pa &^ (PageSize - 1))
			if pa >= normal+secure {
				if m.Mem.FreePage(region, page) == nil {
					t.Fatalf("%s: FreePage past the end of memory accepted", what)
				}
				continue
			}
			if rng.Intn(2) == 0 {
				if err := m.Mem.FreePage(region, page); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			} else {
				got, err := m.Mem.AllocPages(region, 1)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				page = got
			}
			delete(oracle, page.PFN())
		}
	}
	// Every frame the model still holds reads back byte for byte.
	got := make([]byte, PageSize)
	for pfn, want := range oracle {
		if err := m.Mem.Read(SecureWorld, PA(pfn<<PageShift), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %#x differs from the model", pfn)
		}
	}
}

// TestWatchFireOrderAndRemoval pins the write-watch registry's rules through
// one scripted write: watches fire in registration order; a callback may
// remove its own watch, a later one (which is then skipped although the
// write's snapshot holds it) or an earlier one (which already fired); a watch
// registered by a callback waits for the next write.
func TestWatchFireOrderAndRemoval(t *testing.T) {
	m := testMachine()
	var log []string
	ring := func() {
		t.Helper()
		if err := m.Mem.Write(NormalWorld, 64, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	watch := func(name string, then func()) int {
		return m.Mem.WatchWrite(64, 8, func() {
			log = append(log, name)
			if then != nil {
				then()
			}
		})
	}
	var self, later, late int
	first := watch("first", nil)
	self = watch("self", func() { m.Mem.Unwatch(self) })
	watch("killer", func() {
		m.Mem.Unwatch(later)
		m.Mem.Unwatch(first)
		if late == 0 {
			late = watch("late", nil)
		}
	})
	later = watch("later", nil)
	watch("last", nil)

	ring()
	ring()
	want := "[first self killer last killer last late]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if n := m.Mem.WatchCount(); n != 3 {
		t.Fatalf("%d watches registered, want killer, last and late", n)
	}
}

// TestWatchRegistryZeroAllocs: arming and cancelling a doorbell, and a write
// that rings one, stay off the heap once the registry has its capacity.
func TestWatchRegistryZeroAllocs(t *testing.T) {
	m := testMachine()
	rung := 0
	fn := func() { rung++ }
	keep := m.Mem.WatchWrite(64, 8, fn)
	m.Mem.Unwatch(m.Mem.WatchWrite(64, 8, fn))
	word := []byte{1}
	if n := testing.AllocsPerRun(100, func() {
		id := m.Mem.WatchWrite(64, 8, fn)
		if err := m.Mem.Write(NormalWorld, 64, word); err != nil {
			t.Fatal(err)
		}
		m.Mem.Unwatch(id)
	}); n != 0 {
		t.Fatalf("WatchWrite + ringing write + Unwatch allocates %.1f times; want 0", n)
	}
	if rung != 2*101 {
		t.Fatalf("watches rang %d times, want %d", rung, 2*101)
	}
	m.Mem.Unwatch(keep)
}

// TestLoad64: the peek returns the word a secure-world Read of those eight
// bytes returns — in a written frame, in an untouched one (zero, and the
// frame stays unallocated), at the last word of a page and of memory — and
// declines a word that crosses a page or lies past the end of memory.
func TestLoad64(t *testing.T) {
	m := testMachine()
	size := m.Mem.Size()
	if err := m.Mem.Write(SecureWorld, 3*PageSize-8, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pa   uint64
		ok   bool
	}{
		{"last word of a written page", 3*PageSize - 8, true},
		{"untouched frame", 7 * PageSize, true},
		{"last word of memory", size - 8, true},
		{"crossing a page", 3*PageSize - 4, false},
		{"straddling the end", size - 4, false},
		{"past the end", size, false},
	} {
		got, ok := m.Mem.Load64(PA(tc.pa))
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		var b [8]byte
		if err := m.Mem.Read(SecureWorld, PA(tc.pa), b[:]); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := binary.LittleEndian.Uint64(b[:]); got != want {
			t.Errorf("%s: Load64 = %#x, Read gives %#x", tc.name, got, want)
		}
	}
	// Page 9 shares its leaf with the written page 2 and was never touched.
	leaf := m.Mem.frames[0]
	if leaf == nil || leaf[9] != nil {
		t.Fatal("the fixture's first leaf is not allocated or page 9 has a frame")
	}
	if v, _ := m.Mem.Load64(9 * PageSize); v != 0 || leaf[9] != nil {
		t.Errorf("peeking an untouched frame read %#x or allocated it", v)
	}
}

// TestReleaseRecyclesFrames: Release scrubs every touched frame into the
// recycler, the next machine's first touches take those frames zeroed, and
// every access to the released memory is ErrReleased — never a fresh frame.
func TestReleaseRecyclesFrames(t *testing.T) {
	m := testMachine()
	data := bytes.Repeat([]byte{0xA5}, 3*PageSize)
	if err := m.Mem.Write(SecureWorld, PageSize, data); err != nil {
		t.Fatal(err)
	}
	released := make(map[*byte][]byte)
	for pfn := uint64(1); pfn <= 3; pfn++ {
		f := m.Mem.frames[0][pfn]
		released[&f[0]] = f[:]
	}
	m.Mem.Release()
	for _, f := range released {
		if !bytes.Equal(f, make([]byte, PageSize)) {
			t.Fatal("a released frame was not scrubbed")
		}
	}
	buf := make([]byte, 8)
	for op, err := range map[string]error{
		"Read":  m.Mem.Read(SecureWorld, PageSize, buf),
		"Write": m.Mem.Write(SecureWorld, 5*PageSize, buf),
	} {
		if !errors.Is(err, ErrReleased) {
			t.Errorf("%s after Release: %v, want ErrReleased", op, err)
		}
	}
	if _, ok := m.Mem.Load64(PageSize); ok {
		t.Error("Load64 found a word in released memory")
	}
	if m.Mem.frames != nil {
		t.Error("an access after Release made a frame")
	}

	next := testMachine()
	for pfn := uint64(0); pfn < 3; pfn++ {
		if err := next.Mem.Write(NormalWorld, PA(pfn*PageSize), []byte{1}); err != nil {
			t.Fatal(err)
		}
		f := next.Mem.frames[0][pfn]
		if released[&f[0]] == nil {
			t.Fatalf("frame %d of the next machine is not a released one", pfn)
		}
		if f[0] != 1 || !bytes.Equal(f[1:], make([]byte, PageSize-1)) {
			t.Fatalf("frame %d of the next machine came back non-zero", pfn)
		}
	}
}
