package gpu

import "sort"

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
