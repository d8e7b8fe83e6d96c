//go:build !amd64

package gpu

// useAVX is false: there is no assembly body here, and export_test.go's hook
// has nothing to switch off.
var useAVX = false

// rowTerms is rowTermsGo where there is no assembly body.
func rowTerms(c, b, av []float32, at []int) { rowTermsGo(c, b, av, at) }

// tileTerms is tileTermsGo where there is no assembly body.
func tileTerms(out *[8][8]float32, a []float32, ao *[8]int, rt int, bp []float32) {
	tileTermsGo(out, a, ao, rt, bp)
}
