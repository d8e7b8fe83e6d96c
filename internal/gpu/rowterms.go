package gpu

// rowTerms(c, b, av, at) adds av[g]·b[at[g]:][:len(c)] to the C row c for
// every g, g ascending: each c[j] takes its terms' products one after the
// other, one multiply and one add each, so every lane rounds as the textbook
// loop does. The caller proves every read in bounds: len(av) == len(at), and
// at ascends with b[at[0]] and b[at[len(at)-1]+len(c)-1] both in b. On amd64
// the body is SSE2 assembly (rowterms_amd64.s); elsewhere it is rowTermsGo.

// rowTermsGo is rowTerms in Go: the terms folded four per pass over the row —
// one load and one store of c[j] carry four multiply-adds, still applied to
// it one after the other — and the last up to three through axpy.
func rowTermsGo(c, b, av []float32, at []int) {
	n := len(c)
	g := 0
	for ; g+4 <= len(av); g += 4 {
		b0, b1, b2, b3 := b[at[g]:][:n], b[at[g+1]:][:n], b[at[g+2]:][:n], b[at[g+3]:][:n]
		a0, a1, a2, a3 := av[g], av[g+1], av[g+2], av[g+3]
		for j, v := range c {
			v += a0 * b0[j]
			v += a1 * b1[j]
			v += a2 * b2[j]
			v += a3 * b3[j]
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
		c[j] += a * b[j]
	}
}
