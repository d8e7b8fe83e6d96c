package gpu

// Lookup returns the registered kernel of that name.
func Lookup(name string) (*Kernel, bool) {
	k, ok := registry[name]
	return k, ok
}
