package gpu

import "testing"

// TestHasAVXNeedsCPUAndOS holds the CPU check to its three bits: AVX and
// OSXSAVE in CPUID leaf 1's ECX, then the SSE and YMM state in XCR0, which is
// read only when OSXSAVE says XGETBV may run.
func TestHasAVXNeedsCPUAndOS(t *testing.T) {
	const osxsave, avx = 1 << 27, 1 << 28
	cases := []struct {
		ecx, xcr0 uint32
		want      bool
	}{
		{osxsave | avx, 0x7, true},
		{osxsave | avx | 1<<12, 0xe7, true}, // FMA and AVX-512 state change nothing
		{avx, 0x7, false},                   // the OS does not save the YMM state
		{osxsave, 0x7, false},               // no AVX
		{osxsave | avx, 0x3, false},         // XCR0 without the YMM state
		{osxsave | avx, 0x5, false},         // XCR0 without the SSE state
	}
	for _, c := range cases {
		read := false
		got := hasAVX(c.ecx, func() uint32 { read = true; return c.xcr0 })
		if got != c.want {
			t.Errorf("ecx %#x xcr0 %#x: hasAVX = %v, want %v", c.ecx, c.xcr0, got, c.want)
		}
		if read && c.ecx&osxsave == 0 {
			t.Errorf("ecx %#x: XCR0 read without OSXSAVE", c.ecx)
		}
	}
	if want := hasAVX(cpuid1(), xgetbv0); useAVX != want {
		t.Errorf("useAVX = %v, this CPU's check gives %v", useAVX, want)
	}
}
