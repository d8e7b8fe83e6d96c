package hw

import (
	"errors"
	"fmt"
	"testing"
)

// naiveCheck is the reference verdict: deterministic slot-ordered scan.
func naiveCheck(regions map[int]tzRegion, pa PA) bool {
	for id := 0; id < 64; id++ {
		r, ok := regions[id]
		if !ok {
			continue
		}
		if pa >= r.base && uint64(pa) < uint64(r.base)+r.size {
			return r.secure
		}
	}
	return false
}

// TestTZASCIndexMatchesNaiveScan cross-checks the locked binary-search index
// against a brute-force scan over a non-overlapping layout with gaps.
func TestTZASCIndexMatchesNaiveScan(t *testing.T) {
	tz := NewTZASC()
	// Deliberately unsorted slot order, with gaps between regions.
	_ = tz.SetRegion(3, 0x40000, 0x8000, true)
	_ = tz.SetRegion(0, 0x00000, 0x10000, false)
	_ = tz.SetRegion(7, 0x20000, 0x4000, true)
	_ = tz.SetRegion(1, 0x60000, 0x10000, false)
	tz.Lock()
	probes := []PA{0, 0xFFFF, 0x10000, 0x1FFFF, 0x20000, 0x23FFF, 0x24000,
		0x3FFFF, 0x40000, 0x47FFF, 0x48000, 0x60000, 0x6FFFF, 0x70000, 0x123456}
	for _, pa := range probes {
		want := naiveCheck(tz.regions, pa)
		if got := tz.IsSecure(pa); got != want {
			t.Fatalf("pa %#x: IsSecure=%v, naive=%v", uint64(pa), got, want)
		}
		err := tz.Check(NormalWorld, pa)
		if want && err == nil {
			t.Fatalf("pa %#x: secure address allowed from normal world", uint64(pa))
		}
		if !want && err != nil {
			t.Fatalf("pa %#x: normal address denied: %v", uint64(pa), err)
		}
	}
}

// TestTZASCCheckSpan asserts the span ends: inside a region the span runs to
// the region end; in a gap it runs to the next region's base; above the last
// region it is unbounded.
func TestTZASCCheckSpan(t *testing.T) {
	tz := NewTZASC()
	_ = tz.SetRegion(0, 0x10000, 0x10000, false)
	_ = tz.SetRegion(1, 0x30000, 0x8000, true)
	tz.Lock()
	cases := []struct {
		pa      PA
		wantEnd PA
	}{
		{0x0, 0x10000},            // gap below first region
		{0x10000, 0x20000},        // region 0 start
		{0x1C000, 0x20000},        // inside region 0
		{0x20000, 0x30000},        // gap between regions
		{0x38000, PA(^uint64(0))}, // above the last region: unbounded
	}
	for _, c := range cases {
		end, err := tz.CheckSpan(NormalWorld, c.pa)
		if err != nil {
			t.Fatalf("pa %#x: unexpected denial: %v", uint64(c.pa), err)
		}
		if end != c.wantEnd {
			t.Fatalf("pa %#x: span end %#x, want %#x", uint64(c.pa), uint64(end), uint64(c.wantEnd))
		}
	}
	// Secure region from the normal world: denied, and the denial carries
	// the faulting address.
	if _, err := tz.CheckSpan(NormalWorld, 0x30000); err == nil {
		t.Fatal("secure span allowed from normal world")
	}
	if end, err := tz.CheckSpan(SecureWorld, 0x30000); err != nil || end != 0x38000 {
		t.Fatalf("secure world span: end %#x err %v", uint64(end), err)
	}
}

// TestTZASCPreLockSpanIsPageGranular: before Lock() the configuration can
// still change, so spans must not extend past the probed page.
func TestTZASCPreLockSpanIsPageGranular(t *testing.T) {
	tz := NewTZASC()
	_ = tz.SetRegion(0, 0, 1<<20, false)
	end, err := tz.CheckSpan(NormalWorld, 0x1800)
	if err != nil {
		t.Fatal(err)
	}
	if end != 0x2000 {
		t.Fatalf("pre-lock span end %#x, want next page boundary 0x2000", uint64(end))
	}
}

// TestTZASCOverlapFallsBack: overlapping regions defeat the sorted index;
// verdicts must still match the deterministic slot-ordered scan (lowest slot
// id wins), at page granularity.
func TestTZASCOverlapFallsBack(t *testing.T) {
	tz := NewTZASC()
	_ = tz.SetRegion(0, 0x0000, 0x3000, false)
	_ = tz.SetRegion(1, 0x2000, 0x3000, true) // overlaps region 0
	tz.Lock()
	if !tz.overlap {
		t.Fatal("overlap not detected at Lock()")
	}
	// 0x2800 is covered by both; slot 0 (normal) wins.
	if tz.IsSecure(0x2800) {
		t.Fatal("overlap verdict should follow lowest slot id (normal)")
	}
	if tz.IsSecure(0x3000) != true {
		t.Fatal("0x3000 only in region 1: want secure")
	}
	end, err := tz.CheckSpan(SecureWorld, 0x2800)
	if err != nil {
		t.Fatal(err)
	}
	if end != 0x3000 {
		t.Fatalf("overlap span must be page-granular: end %#x", uint64(end))
	}
}

// TestFreePageValidation: FreePage must refuse foreign, misaligned, and
// out-of-range addresses instead of scrubbing frames it does not own.
func TestFreePageValidation(t *testing.T) {
	m := NewMachine(Config{NormalMemBytes: 4 * PageSize, SecureMemBytes: 4 * PageSize})
	pa, err := m.Mem.AllocPages("secure", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.FreePage("nope", pa); err == nil {
		t.Fatal("unknown region accepted")
	}
	if err := m.Mem.FreePage("secure", pa+1); err == nil {
		t.Fatal("misaligned address accepted")
	}
	if err := m.Mem.FreePage("normal", pa); err == nil {
		t.Fatal("address outside the named region accepted")
	}
	// The guarded page must be untouched by the failed frees.
	if err := m.Mem.Write(SecureWorld, pa, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.FreePage("normal", pa); err == nil {
		t.Fatal("secure frame freed through the normal region")
	}
	got := make([]byte, 1)
	if err := m.Mem.Read(SecureWorld, pa, got); err != nil || got[0] != 0xAB {
		t.Fatalf("failed FreePage scrubbed the page anyway: %v %v", got, err)
	}
	if err := m.Mem.FreePage("secure", pa); err != nil {
		t.Fatalf("legitimate free refused: %v", err)
	}
}

// TestPhysMemSpanCheckFaultAddr: a multi-page access crossing into a secure
// region must fault at the first denied byte, same as per-page checking.
func TestPhysMemSpanCheckFaultAddr(t *testing.T) {
	tz := NewTZASC()
	_ = tz.SetRegion(0, 0, 4*PageSize, false)
	_ = tz.SetRegion(1, 4*PageSize, 4*PageSize, true)
	tz.Lock()
	mem := NewPhysMem(8*PageSize, tz)
	buf := make([]byte, 3*PageSize)
	err := mem.Write(NormalWorld, PA(2*PageSize+16), buf)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if f.Kind != FaultTZASC {
		t.Fatalf("want FaultTZASC, got %v", f.Kind)
	}
	if f.Addr != uint64(4*PageSize) {
		t.Fatalf("fault addr %#x, want first denied page %#x", f.Addr, 4*PageSize)
	}
}

// TestWatchWrite covers the doorbell substrate: overlap filtering, firing in
// registration order, no firing on reads or scrubs, and removal by id —
// before a write, from inside a watch's own callback, and of a later watch by
// an earlier callback of the same write — with few overlapping watches (the
// stack snapshot) and with more than four (its spill path).
func TestWatchWrite(t *testing.T) {
	m := NewMachine(Config{NormalMemBytes: 16 * PageSize, SecureMemBytes: 4 * PageSize})
	var log []string
	logger := func(name string) func() { return func() { log = append(log, name) } }
	write := func(pa PA, n int) {
		t.Helper()
		if err := m.Mem.Write(NormalWorld, pa, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(what string, want ...string) {
		t.Helper()
		if got := fmt.Sprint(log); got != fmt.Sprint(want) {
			t.Fatalf("%s: firing log %v, want %v", what, got, want)
		}
		log = nil
	}
	w1 := m.Mem.WatchWrite(16, 8, logger("w1"))
	w2 := m.Mem.WatchWrite(24, 8, logger("w2"))
	if w1 == 0 || w2 == 0 || w1 == w2 {
		t.Fatalf("watch ids %d, %d: want distinct and non-zero", w1, w2)
	}

	write(16, 8)   // covers only the first watch
	write(20, 8)   // covers both (overlap at [16,32))
	write(4096, 8) // covers neither
	// Reads and scrubs never ring doorbells.
	if err := m.Mem.Read(NormalWorld, 16, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	m.Mem.zeroPage(0)
	expect("overlap filtering", "w1", "w1", "w2")

	// Unwatch removes the watch; a second Unwatch and the zero id are ignored.
	m.Mem.Unwatch(w1)
	m.Mem.Unwatch(w1)
	m.Mem.Unwatch(0)
	write(16, 16)
	expect("after Unwatch", "w2")
	m.Mem.Unwatch(w2)

	// A callback removing its own watch mid-fire must not skip others.
	var w3 int
	w3 = m.Mem.WatchWrite(100, 4, func() { log = append(log, "w3"); m.Mem.Unwatch(w3) })
	w4 := m.Mem.WatchWrite(100, 4, logger("w4"))
	write(100, 4)
	write(100, 4)
	expect("self-Unwatch", "w3", "w4", "w4")
	m.Mem.Unwatch(w4)

	// A watch removed by an earlier callback of the same write is skipped,
	// although the snapshot of that write holds it.
	var victim int
	w5 := m.Mem.WatchWrite(200, 4, func() { log = append(log, "w5"); m.Mem.Unwatch(victim) })
	victim = m.Mem.WatchWrite(200, 4, logger("victim"))
	w6 := m.Mem.WatchWrite(200, 4, logger("w6"))
	write(200, 4)
	expect("removed by an earlier callback", "w5", "w6")
	m.Mem.Unwatch(w5)
	m.Mem.Unwatch(w6)

	// More overlapping watches than the stack snapshot holds: same order,
	// same skip rule.
	var ids []int
	var names []string
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("s%d", i)
		fn := logger(name)
		if i == 1 {
			fn = func() { log = append(log, "s1"); m.Mem.Unwatch(ids[5]) }
		}
		ids = append(ids, m.Mem.WatchWrite(300, 8, fn))
		if i != 5 {
			names = append(names, name)
		}
	}
	write(304, 1)
	expect("spilled snapshot", names...)
	for _, id := range ids {
		m.Mem.Unwatch(id)
	}
	if n := m.Mem.WatchCount(); n != 0 {
		t.Fatalf("%d watches left registered", n)
	}
}
