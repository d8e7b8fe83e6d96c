//go:build !amd64

package gpu

// rowTerms is rowTermsGo where there is no assembly body.
func rowTerms(c, b, av []float32, at []int) { rowTermsGo(c, b, av, at) }

// tileTerms is tileTermsGo where there is no assembly body.
func tileTerms(out *[4][8]float32, a []float32, ao *[4]int, rt int, bp []float32) {
	tileTermsGo(out, a, ao, rt, bp)
}
