//go:build !amd64

package gpu

// rowTerms is rowTermsGo where there is no assembly body.
func rowTerms(c, b, av []float32, at []int) { rowTermsGo(c, b, av, at) }
