package gpu

// useAVX picks the leaves' bodies once, at package init: the AVX bodies of
// rowterms_amd64.s where the CPU has AVX and the OS saves the YMM registers,
// rowTermsGo and tileTermsGo where either is missing. It is read-only after
// init; only export_test.go's hook writes it, to run the Go twins on an AVX
// host.
var useAVX = hasAVX(cpuid1(), xgetbv0)

// hasAVX reads CPUID leaf 1's ECX: AVX (bit 28) and OSXSAVE (bit 27), the
// second saying XGETBV may run; then XCR0, which must enable both the SSE
// (bit 1) and the YMM (bit 2) state, or the OS would not save the upper
// halves across a context switch.
func hasAVX(ecx uint32, xcr0 func() uint32) bool {
	const osxsave, avx = 1 << 27, 1 << 28
	return ecx&(osxsave|avx) == osxsave|avx && xcr0()&6 == 6
}

// cpuid1 returns ECX of CPUID leaf 1.
func cpuid1() uint32

// xgetbv0 returns the low word of XCR0; only a CPU with OSXSAVE runs it.
func xgetbv0() uint32

// rowTerms runs rowTermsAVX or rowTermsGo, as useAVX says.
func rowTerms(c, b, av []float32, at []int) {
	if useAVX {
		rowTermsAVX(c, b, av, at)
		return
	}
	rowTermsGo(c, b, av, at)
}

// tileTerms runs tileTermsAVX or tileTermsGo, as useAVX says.
func tileTerms(out *[8][8]float32, a []float32, ao *[8]int, rt int, bp []float32) {
	if useAVX {
		tileTermsAVX(out, a, ao, rt, bp)
		return
	}
	tileTermsGo(out, a, ao, rt, bp)
}

// rowTermsAVX is the AVX body in rowterms_amd64.s: eight columns of c a
// VMULPS/VADDPS pair per term, then one pair on four columns if four are
// left, the last len(c)%4 a VMULSS/VADDSS pair.
//
//go:noescape
func rowTermsAVX(c, b, av []float32, at []int)

// tileTermsAVX is the AVX body in rowterms_amd64.s: the tile's 64 sums live in
// Y0–Y7 for all of k, and each term is one VMULPS/VADDPS pair per row.
//
//go:noescape
func tileTermsAVX(out *[8][8]float32, a []float32, ao *[8]int, rt int, bp []float32)
