package gpu

import (
	"sort"
	"testing"
)

// Lookup returns the registered kernel of that name.
func Lookup(name string) (*Kernel, bool) {
	k, ok := registry[name]
	return k, ok
}

// KernelNames returns every registered kernel's name, sorted.
func KernelNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// eachLeafBody runs f as a subtest once per body the matmul leaves can take
// here: "avx" with the bodies useAVX picked at init, then "go" with it forced
// off, so that rowTerms and tileTerms run rowTermsGo and tileTermsGo; on a host
// without AVX only "go". It is the one writer of useAVX after init, and no
// test that calls it may run in parallel with another matmul.
func eachLeafBody(t *testing.T, f func(t *testing.T)) {
	if useAVX {
		t.Run("avx", f)
		useAVX = false
		defer func() { useAVX = true }()
	}
	t.Run("go", f)
}
