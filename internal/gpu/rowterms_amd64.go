package gpu

// rowTerms is the SSE2 body in rowterms_amd64.s: four columns of c a
// MULPS/ADDPS pair per term, the last len(c)%4 a MULSS/ADDSS pair. SSE2 is
// the amd64 baseline, so every amd64 CPU runs it.
//
//go:noescape
func rowTerms(c, b, av []float32, at []int)

// tileTerms is the SSE2 body in rowterms_amd64.s: the tile's 32 sums live in
// X0–X7 for all of k, and each term is one MULPS/ADDPS pair per four columns.
//
//go:noescape
func tileTerms(out *[4][8]float32, a []float32, ao *[4]int, rt int, bp []float32)
