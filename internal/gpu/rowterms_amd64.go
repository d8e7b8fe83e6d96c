package gpu

// rowTerms is the SSE2 body in rowterms_amd64.s: four columns of c a
// MULPS/ADDPS pair per term, the last len(c)%4 a MULSS/ADDSS pair. SSE2 is
// the amd64 baseline, so every amd64 CPU runs it.
//
//go:noescape
func rowTerms(c, b, av []float32, at []int)
