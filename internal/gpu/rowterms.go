package gpu

// rowTerms(c, b, av, at) adds av[g]·b[at[g]:][:len(c)] to the C row c for
// every g, g ascending: each c[j] takes its terms' products one after the
// other, one multiply and one add each, so every lane rounds as the textbook
// loop does. The caller proves every read in bounds: len(av) == len(at), and
// at ascends with b[at[0]] and b[at[len(at)-1]+len(c)-1] both in b. On an
// amd64 CPU with AVX the body is assembly (rowterms_amd64.s); elsewhere it is
// rowTermsGo.

// rowTermsGo is rowTerms in Go: the terms folded four per pass over the row —
// one load and one store of c[j] carry four multiply-adds, still applied to
// it one after the other — and the last up to three through axpy. Every
// product is converted to float32 before its add: the Go spec forbids a
// compiler to fuse a converted product, and arm64's fuses one that is not.
func rowTermsGo(c, b, av []float32, at []int) {
	n := len(c)
	g := 0
	for ; g+4 <= len(av); g += 4 {
		b0, b1, b2, b3 := b[at[g]:][:n], b[at[g+1]:][:n], b[at[g+2]:][:n], b[at[g+3]:][:n]
		a0, a1, a2, a3 := av[g], av[g+1], av[g+2], av[g+3]
		for j, v := range c {
			v += float32(a0 * b0[j])
			v += float32(a1 * b1[j])
			v += float32(a2 * b2[j])
			v += float32(a3 * b3[j])
			c[j] = v
		}
	}
	for ; g < len(av); g++ {
		axpy(c, av[g], b[at[g]:][:n])
	}
}

// axpy is c[j] += a*b[j] over equal-length rows: the inner loop for the up
// to three terms a row has left after its groups of four.
func axpy(c []float32, a float32, b []float32) {
	b = b[:len(c)]
	for j := range c {
		c[j] += float32(a * b[j])
	}
}

// tileTerms(out, a, ao, rt, bp) computes one 8×8 tile of C from nothing:
// out[q][j] = Σ_t a[ao[q]+t·rt]·bp[8t+j] over t = 0 … len(bp)/8−1, t
// ascending, every term taken — zero a values included — as one multiply and
// one add onto a sum that starts at +0. Row q of op(A) is read in place with
// stride rt, so one body serves A stored M×K (ao[q] = i·K, rt = 1) and K×M
// (ao[q] = i, rt = M); bp is one panel of packPanels. The caller proves every
// read in bounds: len(bp)%8 == 0, the ao[q] ascend, and when len(bp) > 0
// a[ao[7]+(len(bp)/8−1)·rt] is in a. On an amd64 CPU with AVX the body is
// assembly (rowterms_amd64.s); elsewhere it is tileTermsGo.

// tileTermsGo is tileTerms in Go, each product converted to float32 before
// its add as in rowTermsGo: the assembly's VMULPS and VADDPS are two roundings.
func tileTermsGo(out *[8][8]float32, a []float32, ao *[8]int, rt int, bp []float32) {
	var c [8][8]float32
	for t := 0; t < len(bp)/8; t++ {
		b := (*[8]float32)(bp[8*t:])
		for q := range c {
			v := a[ao[q]+t*rt]
			for j := range c[q] {
				c[q][j] += float32(v * b[j])
			}
		}
	}
	*out = c
}
