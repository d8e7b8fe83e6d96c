package spm

import (
	"testing"

	"cronus/internal/hw"
	"cronus/internal/sim"
)

// benchRig boots a minimal SPM with one CPU partition holding npages of
// mapped memory — no simulated procs needed, since the warm access path
// charges no virtual time.
func benchRig(tb testing.TB, npages int) (*View, uint64) {
	tb.Helper()
	k := sim.NewKernel()
	m := hw.NewMachine(hw.Config{NormalMemBytes: 4 << 20, SecureMemBytes: 64 << 20})
	if err := m.Fuses.Burn("platform-rot", []byte("bench")); err != nil {
		tb.Fatal(err)
	}
	s, err := Boot(k, m, sim.DefaultCosts())
	if err != nil {
		tb.Fatal(err)
	}
	p, err := s.CreatePartition("bench", "", []byte("img"))
	if err != nil {
		tb.Fatal(err)
	}
	ipa, err := s.AllocMem(p, npages)
	if err != nil {
		tb.Fatal(err)
	}
	return s.NewView(p, nil), ipa
}

// BenchmarkViewAccess measures the per-access cost of the view hot path —
// one warm 4 KiB page read: TLB hit, one TZASC span check, one page copy.
func BenchmarkViewAccess(b *testing.B) {
	v, ipa := benchRig(b, 1)
	buf := make([]byte, hw.PageSize)
	if err := v.Read(nil, ipa, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Read(nil, ipa, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewAccess64K is the multi-page variant: a 64 KiB read spanning
// 16 pages exercises the per-page TLB hits and the span-level TZASC check.
func BenchmarkViewAccess64K(b *testing.B) {
	v, ipa := benchRig(b, 16)
	buf := make([]byte, 16*hw.PageSize)
	if err := v.Read(nil, ipa, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Read(nil, ipa, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewAccessWord is the ring-header pattern: an 8-byte warm read.
func BenchmarkViewAccessWord(b *testing.B) {
	v, ipa := benchRig(b, 1)
	var buf [8]byte
	if err := v.Read(nil, ipa, buf[:]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Read(nil, ipa, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTLBHitPathZeroAllocs guards the hot path the same way the metrics and
// trace packages guard theirs: a warm view access must not allocate, whether
// it is a ring word, a page or a 16-page payload.
func TestTLBHitPathZeroAllocs(t *testing.T) {
	v, ipa := benchRig(t, 16)
	for _, size := range []int{8, 64, hw.PageSize, 16 * hw.PageSize} {
		buf := make([]byte, size)
		if err := v.Write(nil, ipa, buf); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := v.Read(nil, ipa, buf); err != nil {
				t.Fatal(err)
			}
			if err := v.Write(nil, ipa, buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("warm %d-byte view access allocates %.1f times per read+write; want 0", size, n)
		}
	}
}

// TestIsolationRegistryZeroAllocs: a doorbell waiter arming and cancelling its
// isolation hook, and an isolation change notifying the parked ones, stay off
// the heap once the registry has its capacity.
func TestIsolationRegistryZeroAllocs(t *testing.T) {
	v, _ := benchRig(t, 1)
	s := v.spm
	woken := 0
	fn := func() { woken++ }
	keep := s.OnIsolationChange(fn)
	s.OffIsolationChange(s.OnIsolationChange(fn))
	if n := testing.AllocsPerRun(100, func() {
		id := s.OnIsolationChange(fn)
		s.isolationChanged()
		s.OffIsolationChange(id)
	}); n != 0 {
		t.Fatalf("OnIsolationChange + isolationChanged + OffIsolationChange allocates %.1f times; want 0", n)
	}
	if woken != 2*101 {
		t.Fatalf("hooks ran %d times, want %d", woken, 2*101)
	}
	s.OffIsolationChange(keep)
}
